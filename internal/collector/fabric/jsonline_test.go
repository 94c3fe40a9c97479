package fabric

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"netseer/internal/collector"
)

// TestCallJSONReportsWhatWentWrong drives the JSON-line client against
// peers that misbehave after reading the request: one that hangs up, one
// that never answers (the deadline's timeout is reported, not taken for
// a hang-up) and one that answers with a line that is not JSON.
func TestCallJSONReportsWhatWentWrong(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(net.Conn)
		check func(error) bool
	}{
		{"hangs up", func(net.Conn) {}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "closed without response")
		}},
		{"never answers", func(c net.Conn) { c.Read(make([]byte, 1)) }, func(err error) bool {
			var ne net.Error
			return errors.As(err, &ne) && ne.Timeout()
		}},
		{"answers garbage", func(c net.Conn) { fmt.Fprintln(c, "not json") }, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "invalid character")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := collector.Listen("127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			svc.Start(nil, func(c net.Conn) {
				if _, err := bufio.NewReader(c).ReadString('\n'); err == nil {
					tc.reply(c)
				}
			})
			defer svc.Close()
			_, err = coordRequest(svc.Addr(), &coordReq{Op: "config"}, 200*time.Millisecond)
			if !tc.check(err) {
				t.Errorf("coordRequest error = %v", err)
			}
		})
	}
}
