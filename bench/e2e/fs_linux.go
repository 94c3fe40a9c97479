package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem dir sits on. The WAL's cost is its fsync,
// so the run header says what that fsync reaches.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs(%#x)", uint32(st.Type))
}
