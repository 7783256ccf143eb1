package memcache

import (
	"context"
	"net"
	"sync"
	"time"
)

// Server is a memcached-compatible TCP daemon speaking the text and the
// binary protocol, told apart by each connection's first byte.
type Server struct {
	store *Store
	// ctx ends when Close is called.
	ctx  context.Context
	stop context.CancelFunc

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewServer returns a daemon bounded to limit bytes using wall-clock time
// for expirations. Its store owns its value bytes (newOwningStore): limit
// bytes of slab pages, mapped outside the collected heap where the system
// allows.
func NewServer(limit int64) *Server {
	s := &Server{
		//imcalint:allow wallclock real TCP daemon: expirations follow the host clock by design
		store: newOwningStore(limit, func() int64 { return time.Now().Unix() }),
		conns: make(map[net.Conn]struct{}),
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	return s
}

// Store exposes the underlying cache engine (for stats and tests).
func (s *Server) Store() *Store { return s.store }

// Listen binds addr (e.g. "127.0.0.1:11211") and serves it in the
// background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln, the server's one listener, and returns
// only once Close has been called. Any other Accept failure — descriptors
// exhausted under load, a connection aborted in the queue — is taken to be
// temporary: Serve tries again after a pause that doubles from 5 ms up to
// 1 s and starts over at the next success, as net/http does.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	if s.ctx.Err() != nil {
		ln.Close() // Close came first
	}
	s.mu.Unlock()
	var pause time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			if pause = 2 * pause; pause == 0 {
				pause = 5 * time.Millisecond
			} else if pause > time.Second {
				pause = time.Second
			}
			wait, cancel := context.WithTimeout(s.ctx, pause)
			<-wait.Done()
			cancel()
			continue
		}
		pause = 0
		s.mu.Lock()
		if s.ctx.Err() != nil {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			_ = ServeAutoConn(s.store, conn)
		}()
	}
}

// Close stops accepting, drops live connections, waits for handlers, and
// then gives the store's slab memory back: the store keeps its counters and
// answers as an empty store from then on. Closing again releases nothing.
func (s *Server) Close() error {
	s.mu.Lock()
	s.stop()
	for c := range s.conns {
		c.Close()
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if rerr := s.store.release(); err == nil {
		err = rerr
	}
	return err
}
