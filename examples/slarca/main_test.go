package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdout runs the example and compares what it prints, byte for byte,
// with testdata/stdout.golden: the simulation is deterministic, and so is
// the order the example prints in.
func TestStdout(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from testdata/stdout.golden; got:\n%s", got)
	}
}
