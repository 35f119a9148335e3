package httpwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// This file implements the framed persistent-channel layer: after an HTTP
// upgrade handshake (a normal request/response exchange), the connection
// stops speaking HTTP and switches to length-prefixed binary frames
// multiplexed in both directions on the one socket. The frame codec knows
// nothing about RCB — frame types are opaque bytes assigned by the caller —
// it only guarantees framing: hard errors on truncated or oversized input,
// and a byte-exact decode→encode round trip.
//
// Wire format, fixed 6-byte header then payload:
//
//	[type:1][flags:1][length:4 big-endian][payload:length]

// FrameHeaderLen is the fixed size of the frame header.
const FrameHeaderLen = 6

// MaxFramePayload bounds any frame payload this implementation will buffer,
// mirroring MaxBodyBytes on the HTTP side: a malformed or hostile peer
// cannot make the reader allocate unboundedly.
const MaxFramePayload = MaxBodyBytes

// Errors reported by the frame codec.
var (
	ErrFrameTooLarge  = errors.New("httpwire: frame payload exceeds limit")
	ErrFrameTruncated = errors.New("httpwire: truncated frame")
)

// Frame is one channel frame. Type and Flags are opaque to this layer.
type Frame struct {
	Type    byte
	Flags   byte
	Payload []byte
}

// ReadFrame reads one frame from r. A clean EOF before any header byte is
// io.EOF (peer closed between frames); EOF mid-frame is ErrFrameTruncated.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, ErrFrameTruncated
		}
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFramePayload {
		return Frame{}, ErrFrameTooLarge
	}
	f := Frame{Type: hdr[0], Flags: hdr[1]}
	if n > 0 {
		var err error
		if f.Payload, err = readN(r, nil, int64(n)); err != nil {
			return Frame{}, ErrFrameTruncated
		}
	}
	return f, nil
}

// WriteFrame writes one frame to w. Header and payload are submitted
// together through the pooled writev path, so a shared payload (the agent's
// prepared content bytes) travels to the socket without an intermediate
// copy — the same zero-copy discipline as WriteResponse.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return ErrFrameTooLarge
	}
	wb := wireBufPool.Get().(*wireBuf)
	b := wb.hdr[:0]
	b = append(b, f.Type, f.Flags)
	b = binary.BigEndian.AppendUint32(b, uint32(len(f.Payload)))
	return wb.flush(w, b, f.Payload)
}

// ChannelConn owns a connection that has completed the upgrade handshake
// and speaks frames. One goroutine may read (ReadFrame) while any number of
// goroutines write (WriteFrame is serialized by an internal mutex) — the
// full-duplex shape RCB's persistent channel needs: downstream content
// frames and upstream action frames interleave freely on the one socket.
type ChannelConn struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

// NewChannelConn wraps an upgraded connection. br must be the reader the
// handshake was parsed through (it may hold buffered frame bytes that
// arrived with the final handshake message); nil means no lookahead exists
// and a fresh reader is created.
func NewChannelConn(conn net.Conn, br *bufio.Reader) *ChannelConn {
	if br == nil {
		br = bufio.NewReaderSize(conn, 8<<10)
	}
	return &ChannelConn{conn: conn, br: br}
}

// ReadFrame reads the next frame. Only one goroutine may call ReadFrame.
func (c *ChannelConn) ReadFrame() (Frame, error) {
	return ReadFrame(c.br)
}

// WriteFrame writes one frame, serialized against concurrent writers so
// frames from different goroutines never interleave on the socket.
func (c *ChannelConn) WriteFrame(f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return WriteFrame(c.conn, f)
}

// SetReadDeadline bounds the next ReadFrame — the dead-peer detector for a
// channel that should be receiving pings.
func (c *ChannelConn) SetReadDeadline(t time.Time) error {
	return c.conn.SetReadDeadline(t)
}

// Close closes the underlying connection. Safe to call from any goroutine
// and more than once; subsequent reads and writes fail.
func (c *ChannelConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
	return c.closeErr
}

// RemoteAddr returns the peer address.
func (c *ChannelConn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// Upgrade performs a channel upgrade handshake against addr: it dials a
// dedicated connection (never the pooled one — the connection is about to
// leave HTTP), sends req, and reads the response. On a 101 the
// connection switches to frames and the returned ChannelConn owns it. Any
// other status is a refusal: the connection is closed and the response
// returned so the caller can read the refusal's close-reason headers.
// timeout, when positive, bounds the handshake round trip only; the
// established channel carries no deadline.
func (c *Client) Upgrade(addr string, req *Request, timeout time.Duration) (*ChannelConn, *Response, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, nil, ErrClientClosed
	}
	conn, err := c.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			conn.Close()
			return nil, nil, err
		}
	}
	if err := WriteRequest(conn, req); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 8<<10)
	resp, err := ReadResponse(br)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if resp.StatusCode != 101 {
		conn.Close()
		return nil, resp, nil
	}
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			conn.Close()
			return nil, nil, err
		}
	}
	return NewChannelConn(conn, br), resp, nil
}
