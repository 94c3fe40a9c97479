package fabric

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"
)

// The shard admin and the coordinator protocols share one framing: one
// JSON object per line in each direction, a request answered by one
// response. Every response carries "ok" and, when it is false, "err".

// maxJSONLine bounds one line. Handoff payloads ride base64 on a single
// admin line, so it must hold the largest transfer.
const maxJSONLine = 64 << 20

// badRequest is the answer to a line that does not decode as a request.
type badRequest struct {
	OK  bool   `json:"ok"`
	Err string `json:"err"`
}

// serveJSON serves one connection of a JSON-line protocol: each line is
// decoded into a Req and answered with handle's Resp, until the client
// closes or a response cannot be written.
func serveJSON[Req, Resp any](handle func(*Req) Resp) func(net.Conn) {
	return func(conn net.Conn) {
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 64<<10), maxJSONLine)
		enc := json.NewEncoder(conn)
		for sc.Scan() {
			var req Req
			var resp any
			if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
				resp = badRequest{Err: fmt.Sprintf("bad request: %v", err)}
			} else {
				resp = handle(&req)
			}
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := enc.Encode(resp); err != nil {
				return
			}
		}
	}
}

// callJSON performs one request of a JSON-line protocol against addr and
// decodes the response line; timeout bounds the dial and the exchange. A
// response whose "ok" is false is the caller's to judge.
func callJSON[Resp any](addr string, req any, timeout time.Duration) (*Resp, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxJSONLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("fabric: connection closed without response")
	}
	var resp Resp
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
