package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// rawClient is the fleet-ops load generator: HTTP/1.1 over one keep-alive
// TCP connection, with every buffer allocated up front, so that the
// process's allocation counters over the timed window measure the program
// under test and not the generator. It speaks just enough HTTP for the
// program's REST servers: Content-Length and chunked replies.
type rawClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	// body holds the last reply's body, valid until the next call.
	body []byte
}

// reqIDHeader carries the client request ID; the benchmark's handler
// wrappers key their spans on it.
const reqIDHeader = "X-Perfbench-Req"

// rawTimeout bounds one request; a control-plane call that takes longer
// is a failure of the run, not a slow sample.
const rawTimeout = 10 * time.Second

func dialRaw(addr string) (*rawClient, error) {
	c := &rawClient{addr: addr, wbuf: make([]byte, 0, 16<<10), body: make([]byte, 0, 64<<10)}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *rawClient) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 64<<10)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

func (c *rawClient) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// do sends one request and reads its reply, returning the status code. On
// a transport error the connection is re-established for the next call.
func (c *rawClient) do(method, path string, reqID uint64, body []byte) (int, error) {
	code, err := c.roundTrip(method, path, reqID, body)
	if err != nil {
		if rerr := c.redial(); rerr != nil {
			return 0, errors.Join(err, rerr)
		}
	}
	return code, err
}

func (c *rawClient) roundTrip(method, path string, reqID uint64, body []byte) (int, error) {
	if err := c.conn.SetDeadline(time.Now().Add(rawTimeout)); err != nil {
		return 0, err
	}
	w := c.wbuf[:0]
	w = append(w, method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: perfbench\r\n"+reqIDHeader+": "...)
	w = strconv.AppendUint(w, reqID, 10)
	if body != nil {
		w = append(w, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		w = strconv.AppendInt(w, int64(len(body)), 10)
	}
	w = append(w, "\r\n\r\n"...)
	w = append(w, body...)
	c.wbuf = w
	if _, err := c.conn.Write(w); err != nil {
		return 0, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	code, ok := atoi(line[9:12])
	if !ok {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, found := bytes.Cut(h, []byte(":"))
		if !found {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, ok := atoi(value)
			if !ok {
				return 0, fmt.Errorf("bad Content-Length %q", value)
			}
			length = n
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	case code == http.StatusNoContent:
	default:
		return 0, fmt.Errorf("reply without length")
	}
	return code, err
}

// readN appends n body bytes to c.body.
func (c *rawClient) readN(n int) error {
	start := len(c.body)
	if cap(c.body)-start < n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *rawClient) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, ok := hexAtoi(line)
		if !ok {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			// Trailer section: lines until the empty one.
			for {
				t, err := c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(t, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := c.readN(n); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil { // chunk CRLF
			return err
		}
	}
}

func atoi(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

func hexAtoi(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		var d byte
		switch {
		case ch >= '0' && ch <= '9':
			d = ch - '0'
		case ch >= 'a' && ch <= 'f':
			d = ch - 'a' + 10
		case ch >= 'A' && ch <= 'F':
			d = ch - 'A' + 10
		default:
			return 0, false
		}
		n = n*16 + int(d)
	}
	return n, true
}
