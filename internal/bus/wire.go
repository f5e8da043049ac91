package bus

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxLineBytes bounds one wire line (an encoded envelope). Lines beyond it
// surface as a read error — bufio.ErrTooLong — instead of silently ending
// the connection.
const maxLineBytes = 1024 * 1024

// outboxDepth is the per-connection bounded outbox between the bus dispatch
// path and each client's writer goroutine. When a client stops draining its
// TCP stream the outbox fills and further envelopes are dropped for that
// client only (counted, never blocking the publisher).
const outboxDepth = 256

// wireConn is one accepted client connection: its socket, the bounded
// outbox its writer goroutine drains, and its dropped-frame counter.
type wireConn struct {
	c       net.Conn
	out     chan []byte
	dropped atomic.Uint64
}

// Server bridges a Bus onto a TCP listener: every envelope published on the
// bus whose topic matches the server's export pattern is forwarded to all
// connected clients, and every line received from a client is decoded and
// republished locally. This is the minimal distribution fabric used by
// cmd/modad; a production deployment would substitute its site transport
// behind the same Envelope format.
//
// Fan-out never blocks the publisher: broadcast only performs non-blocking
// sends into per-connection outboxes, and each connection's writer goroutine
// does the (deadline-bounded) socket writes. A slow or wedged client
// therefore costs dropped frames on its own connection — visible through
// DroppedFrames — instead of stalling every Publish on the bus.
type Server struct {
	ln      net.Listener
	bus     *Bus
	cancel  func()
	mu      sync.Mutex
	conns   map[net.Conn]*wireConn
	closed  bool
	pattern string

	dropped  atomic.Uint64
	readErrs atomic.Uint64
	lastLog  atomic.Int64 // unix nanos of the last read-error log line
}

// NewServer starts serving bus traffic on addr (e.g. "127.0.0.1:0").
// Envelopes matching exportPattern are pushed to clients.
func NewServer(addr, exportPattern string, b *Bus) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, bus: b, conns: make(map[net.Conn]*wireConn), pattern: exportPattern}
	s.cancel = b.Subscribe(exportPattern, s.broadcast)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// NumClients reports the number of connected clients.
func (s *Server) NumClients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// DroppedFrames reports how many outbound frames were dropped across all
// connections because a client's outbox was full.
func (s *Server) DroppedFrames() uint64 { return s.dropped.Load() }

// ReadErrors reports how many client read loops ended with a transport or
// framing error (e.g. a line over the scanner limit) rather than a clean
// disconnect.
func (s *Server) ReadErrors() uint64 { return s.readErrs.Load() }

// Close stops the server and disconnects all clients. The listener closes
// first: a client that redials the moment its link drops is refused, not
// accepted into the backlog and dropped a second time.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close() // unblocks the readLoop, which removes the connection
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		wc := &wireConn{c: conn, out: make(chan []byte, outboxDepth)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = wc
		s.mu.Unlock()
		go s.writeLoop(wc)
		go s.readLoop(wc)
	}
}

func (s *Server) readLoop(wc *wireConn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, wc.c)
		s.mu.Unlock()
		// broadcast sends only to registered connections under mu, so after
		// the delete nothing can write to the outbox and closing it stops
		// the writer goroutine.
		close(wc.out)
		wc.c.Close()
	}()
	sc := bufio.NewScanner(wc.c)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		env, err := Decode(sc.Bytes())
		if err != nil {
			continue // tolerate malformed lines from clients
		}
		s.bus.Publish(env)
	}
	// A nil error is a clean EOF; net.ErrClosed is our own shutdown. Anything
	// else — notably bufio.ErrTooLong for an overlong line — used to vanish
	// as if the peer hung up; count it and log rate-limited.
	if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		s.readErrs.Add(1)
		if now := time.Now().UnixNano(); now-s.lastLog.Load() >= int64(time.Second) {
			s.lastLog.Store(now)
			log.Printf("bus: read %s: %v", wc.c.RemoteAddr(), err)
		}
	}
}

// writeLoop drains one connection's outbox onto its socket. Writes are
// deadline-bounded; on the first failure the connection is closed (the
// readLoop then removes it) and the remaining frames are discarded.
func (s *Server) writeLoop(wc *wireConn) {
	dead := false
	for data := range wc.out {
		if dead {
			continue // keep draining until readLoop closes the outbox
		}
		_ = wc.c.SetWriteDeadline(deadline())
		if _, err := wc.c.Write(data); err != nil {
			wc.c.Close()
			dead = true
		}
	}
}

// broadcast fans one envelope into every connection's outbox. It never
// blocks: a full outbox (a client not draining its stream) costs that
// client one dropped frame.
func (s *Server) broadcast(env Envelope) {
	data, err := Encode(env)
	if err != nil {
		return
	}
	s.mu.Lock()
	for _, wc := range s.conns {
		select {
		case wc.out <- data:
		default:
			wc.dropped.Add(1)
			s.dropped.Add(1)
		}
	}
	s.mu.Unlock()
}

// Client connects a local Bus to a remote Server: lines received from the
// server are republished locally, and locally published envelopes matching
// exportPattern are sent to the server.
type Client struct {
	conn   net.Conn
	bus    *Bus
	cancel func()
	done   chan struct{}
	mu     sync.Mutex
	closed bool
	err    error
}

// Dial connects to a Server at addr and bridges it with b.
func Dial(addr, exportPattern string, b *Bus) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, bus: b, done: make(chan struct{})}
	c.cancel = b.Subscribe(exportPattern, c.send)
	go c.readLoop()
	return c, nil
}

// Done returns a channel closed when the client's read loop ends — the
// connection died (check Err for why) or Close was called. Reconnectors
// select on it instead of polling Err.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close disconnects the client.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	return c.conn.Close()
}

// Err reports why the read loop ended, if it ended on a transport or
// framing error (e.g. a server line over the scanner limit). It is nil
// while the connection is healthy and after a clean close.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) send(env Envelope) {
	data, err := Encode(env)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	_ = c.conn.SetWriteDeadline(deadline())
	_, _ = c.conn.Write(data)
}

func (c *Client) readLoop() {
	defer close(c.done)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		env, err := Decode(sc.Bytes())
		if err != nil {
			continue
		}
		c.bus.Publish(env)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		c.mu.Lock()
		if !c.closed {
			c.err = fmt.Errorf("bus: read %s: %w", c.conn.RemoteAddr(), err)
		}
		c.mu.Unlock()
	}
}
