package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// role says which end of a dlib connection a meter wraps.
type role uint8

const (
	// clientEnd meters a caller: a call runs from the first byte of its
	// request frame written to the last byte of its reply frame read.
	clientEnd role = iota
	// serverEnd meters a server: a service span runs from the last
	// byte of a call frame read to the first byte of its reply written.
	serverEnd
)

// callSpan is one request/reply exchange seen on a metered connection.
type callSpan struct {
	Start, End time.Time
}

// meter is a net.Conn that parses dlib's length-prefixed framing in
// both directions and records one span per exchange. Calls on one dlib
// connection are serial in every topology the benchmark builds, so the
// spans come out in call order.
type meter struct {
	net.Conn
	role role

	rd, wr framer

	mu      sync.Mutex
	open    time.Time
	started bool
	spans   []callSpan
}

func newMeter(c net.Conn, r role) *meter { return &meter{Conn: c, role: r} }

// Read implements net.Conn.
func (m *meter) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	if n > 0 {
		if done := m.rd.feed(p[:n]); done > 0 {
			now := time.Now()
			m.mu.Lock()
			switch m.role {
			case clientEnd:
				if m.started {
					m.spans = append(m.spans, callSpan{m.open, now})
					m.started = false
				}
			case serverEnd:
				m.open, m.started = now, true
			}
			m.mu.Unlock()
		}
	}
	return n, err
}

// Write implements net.Conn.
func (m *meter) Write(p []byte) (int, error) {
	if len(p) > 0 && m.wr.atBoundary() {
		now := time.Now()
		m.mu.Lock()
		switch m.role {
		case clientEnd:
			m.open, m.started = now, true
		case serverEnd:
			if m.started {
				m.spans = append(m.spans, callSpan{m.open, now})
				m.started = false
			}
		}
		m.mu.Unlock()
	}
	n, err := m.Conn.Write(p)
	m.wr.feed(p[:n])
	return n, err
}

// count returns how many spans the meter has completed.
func (m *meter) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.spans)
}

// since returns the spans completed after the first n.
func (m *meter) since(n int) []callSpan {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n >= len(m.spans) {
		return nil
	}
	return append([]callSpan(nil), m.spans[n:]...)
}

// framer tracks dlib frame boundaries in one direction of a byte
// stream: a uint32 little-endian body length, then the body.
type framer struct {
	hdr  [4]byte
	nhdr int
	left int
}

func (f *framer) atBoundary() bool { return f.nhdr == 0 && f.left == 0 }

// feed consumes p and returns how many frames it completed.
func (f *framer) feed(p []byte) int {
	done := 0
	for len(p) > 0 {
		if f.left == 0 {
			k := copy(f.hdr[f.nhdr:], p)
			f.nhdr += k
			p = p[k:]
			if f.nhdr < 4 {
				break
			}
			f.nhdr = 0
			f.left = int(binary.LittleEndian.Uint32(f.hdr[:]))
			if f.left == 0 {
				done++
			}
			continue
		}
		k := min(f.left, len(p))
		f.left -= k
		p = p[k:]
		if f.left == 0 {
			done++
		}
	}
	return done
}
