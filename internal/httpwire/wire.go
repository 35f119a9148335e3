package httpwire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Errors reported by the wire readers.
var (
	ErrHeaderTooLarge = errors.New("httpwire: header block exceeds limit")
	ErrBodyTooLarge   = errors.New("httpwire: body exceeds limit")
	ErrMalformed      = errors.New("httpwire: malformed message")
)

// ReadRequest reads one HTTP request from r. It returns io.EOF when the
// connection is cleanly closed before any bytes of a new request arrive.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	method, target, proto := parts[0], parts[1], parts[2]
	if method == "" || target == "" || !strings.HasPrefix(proto, "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	req := &Request{Method: method, Target: target, Proto: proto, Header: Header{}}
	if err := readHeaders(r, req.Header); err != nil {
		return nil, err
	}
	body, err := readBody(r, req.Header)
	if err != nil {
		return nil, err
	}
	req.Body = body
	return req, nil
}

// ReadResponse reads one HTTP response from r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code in %q", ErrMalformed, line)
	}
	resp := &Response{Proto: parts[0], StatusCode: code, Header: Header{}}
	if err := readHeaders(r, resp.Header); err != nil {
		return nil, err
	}
	if code == 204 || code == 304 || code/100 == 1 {
		return resp, nil // no body by definition
	}
	body, err := readBody(r, resp.Header)
	if err != nil {
		return nil, err
	}
	resp.Body = body
	return resp, nil
}

// readLine reads one CRLF- (or bare LF-) terminated line, enforcing the
// header size limit.
func readLine(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(line) > MaxHeaderBytes {
				return "", ErrHeaderTooLarge
			}
			continue
		}
		if len(line) > 0 && err == io.EOF {
			return "", io.ErrUnexpectedEOF
		}
		return "", err
	}
	if len(line) > MaxHeaderBytes {
		return "", ErrHeaderTooLarge
	}
	s := strings.TrimRight(string(line), "\r\n")
	return s, nil
}

func readHeaders(r *bufio.Reader, h Header) error {
	total := 0
	for {
		line, err := readLine(r)
		if err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		if line == "" {
			return nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return ErrHeaderTooLarge
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || name == "" || strings.ContainsAny(name, " \t") {
			return fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		h.Add(name, strings.TrimSpace(value))
	}
}

func readBody(r *bufio.Reader, h Header) ([]byte, error) {
	if strings.EqualFold(h.Get("Transfer-Encoding"), "chunked") {
		return readChunked(r)
	}
	cl := h.Get("Content-Length")
	if cl == "" {
		return nil, nil
	}
	n, err := strconv.ParseInt(cl, 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, cl)
	}
	if n > MaxBodyBytes {
		return nil, ErrBodyTooLarge
	}
	body, err := readN(r, nil, n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// maxPresize bounds the buffer reserved for a declared body, chunk or frame
// length before its bytes arrive. Anything longer grows as it is read, so a
// peer that declares 32 MiB and goes quiet holds this much, not 32 MiB. It
// is larger than any corpus snapshot, so a join's body is one allocation.
const maxPresize = 256 << 10

// readN appends exactly n bytes from r to dst. It reserves at most
// maxPresize ahead of the bytes and doubles the buffer as they arrive.
func readN(r io.Reader, dst []byte, n int64) ([]byte, error) {
	want := len(dst) + int(n)
	dst = slices.Grow(dst, int(min(n, maxPresize)))
	for len(dst) < want {
		dst = slices.Grow(dst, min(want-len(dst), len(dst)))
		k, err := io.ReadFull(r, dst[len(dst):min(cap(dst), want)])
		if dst = dst[:len(dst)+k]; err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func readChunked(r *bufio.Reader) ([]byte, error) {
	var body []byte
	for {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i] // drop chunk extensions
		}
		size, err := strconv.ParseInt(strings.TrimSpace(line), 16, 64)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("%w: chunk size %q", ErrMalformed, line)
		}
		if int64(len(body))+size > MaxBodyBytes {
			return nil, ErrBodyTooLarge
		}
		if size == 0 {
			// Trailer section: read until blank line.
			for {
				tl, err := readLine(r)
				if err != nil {
					return nil, err
				}
				if tl == "" {
					return body, nil
				}
			}
		}
		if body, err = readN(r, body, size); err != nil {
			return nil, err
		}
		// Chunk data is followed by CRLF.
		if _, err := readLine(r); err != nil {
			return nil, err
		}
	}
}

// wireBuf is the pooled scratch state of one message write: the buffer the
// request/status line and header block are assembled into, plus the
// two-element vector handed to net.Buffers so header and body go out in a
// single submit.
type wireBuf struct {
	hdr []byte
	arr [2][]byte
	vec net.Buffers
}

// wireBufPool recycles wireBufs so every message on the hot polling path
// reuses one allocation instead of regrowing a builder.
var wireBufPool = sync.Pool{New: func() any {
	return &wireBuf{hdr: make([]byte, 0, 512)}
}}

// flush submits one message (header block plus optional body) to w and
// returns wb to the pool. When a body is present the two slices go out as
// one net.Buffers submit: a single writev syscall on real TCP connections
// instead of two write calls, and the same sequential writes as before on
// plain io.Writers. The body is never copied — prepared agent content
// travels from the generation cache to the socket as-is.
func (wb *wireBuf) flush(w io.Writer, hdr, body []byte) error {
	var err error
	if len(body) > 0 {
		wb.arr[0], wb.arr[1] = hdr, body
		wb.vec = wb.arr[:]
		_, err = wb.vec.WriteTo(w)
		wb.arr[0], wb.arr[1] = nil, nil // drop body refs before pooling
		wb.vec = nil
	} else {
		_, err = w.Write(hdr)
	}
	wb.hdr = hdr[:0]
	wireBufPool.Put(wb)
	return err
}

// WriteRequest serializes req to w. Content-Length is set from the body.
func WriteRequest(w io.Writer, req *Request) error {
	proto := req.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	wb := wireBufPool.Get().(*wireBuf)
	b := wb.hdr[:0]
	b = append(b, req.Method...)
	b = append(b, ' ')
	b = append(b, req.Target...)
	b = append(b, ' ')
	b = append(b, proto...)
	b = append(b, "\r\n"...)
	b = appendHeaders(b, req.Header, len(req.Body), req.Method == "POST" || req.Method == "PUT")
	b = append(b, "\r\n"...)
	return wb.flush(w, b, req.Body)
}

// WriteResponse serializes resp to w. Content-Length is set from the body.
// Header and body are submitted together (one writev on TCP); the body
// slice is written as-is, without an intermediate copy.
func WriteResponse(w io.Writer, resp *Response) error {
	proto := resp.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	wb := wireBufPool.Get().(*wireBuf)
	b := wb.hdr[:0]
	b = append(b, proto...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(resp.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, StatusText(resp.StatusCode)...)
	b = append(b, "\r\n"...)
	hasBody := resp.StatusCode != 204 && resp.StatusCode != 304 && resp.StatusCode/100 != 1
	b = appendHeaders(b, resp.Header, len(resp.Body), hasBody)
	b = append(b, "\r\n"...)
	body := resp.Body
	if !hasBody {
		body = nil
	}
	return wb.flush(w, b, body)
}

func appendHeaders(b []byte, h Header, bodyLen int, alwaysLength bool) []byte {
	for _, k := range h.sortedKeys() {
		if k == "Content-Length" || k == "Transfer-Encoding" {
			continue // we always frame with an accurate Content-Length
		}
		for _, v := range h[k] {
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	if bodyLen > 0 || alwaysLength {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(bodyLen), 10)
		b = append(b, "\r\n"...)
	}
	return b
}
