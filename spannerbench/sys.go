package main

// The system under test: spannerd (server.New) in-process behind
// loopback listeners — one node, or a coordinator in front of two
// worker nodes — reached through an HTTP client limited to two
// connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"docspanner/internal/server"
	"docspanner/internal/storage"
)

// node is one spannerd server on a loopback listener.
type node struct {
	srv     *server.Server
	backend *timedBackend
	url     string
	hs      *http.Server
	done    chan struct{}
}

// listen serves h on a fresh loopback port until the returned server
// is shut down; done closes when Serve has returned.
func listen(h http.Handler) (string, *http.Server, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), hs, done, nil
}

func startNode(tr *tracer, backend storage.Backend) (*node, error) {
	tb := &timedBackend{Backend: backend, tr: tr}
	srv, err := server.New(server.Config{Storage: tb, MaxConcurrent: 16})
	if err != nil {
		return nil, err
	}
	u, hs, done, err := listen(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{srv: srv, backend: tb, url: u, hs: hs, done: done}, nil
}

func shutdown(hs *http.Server, done chan struct{}) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = hs.Close()
	<-done
}

func (n *node) close() {
	shutdown(n.hs, n.done)
	n.srv.Close()
}

// system is a booted deployment of one workload.
type system struct {
	nodes     []*node
	coord     *server.Coordinator
	coordURL  string
	coordHS   *http.Server
	coordDone chan struct{}
	transport *timedTransport
	entry     string       // base URL every workload request goes to
	handler   http.Handler // the entry's handler, for in-process requests
	client    *http.Client
	tr        *tracer
	dataDir   string
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
}

// boot starts one node, or with workers > 0 that many nodes behind a
// coordinator whose worker transport is traced.
func boot(tr *tracer, workers int, backend func() (storage.Backend, error)) (*system, error) {
	s := &system{tr: tr, client: newClient()}
	n := max(1, workers)
	for i := 0; i < n; i++ {
		b, err := backend()
		if err != nil {
			s.close()
			return nil, err
		}
		nd, err := startNode(tr, b)
		if err != nil {
			b.Close()
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, nd)
	}
	s.entry, s.handler = s.nodes[0].url, s.nodes[0].srv
	if workers > 0 {
		if err := s.startCoordinator(); err != nil {
			s.close()
			return nil, err
		}
		s.entry, s.handler = s.coordURL, s.coord
	}
	return s, nil
}

// startCoordinator puts a coordinator in front of every node.
func (s *system) startCoordinator() error {
	urls := make([]string, len(s.nodes))
	for i, nd := range s.nodes {
		urls[i] = nd.url
	}
	s.transport = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 32, DisableCompression: true}, tr: s.tr}
	c, err := server.NewCoordinator(server.CoordinatorConfig{Workers: urls, Transport: s.transport})
	if err != nil {
		return err
	}
	u, hs, done, err := listen(c)
	if err != nil {
		c.Close()
		return err
	}
	s.coord, s.coordURL, s.coordHS, s.coordDone = c, u, hs, done
	return nil
}

func (s *system) close() {
	if s.coord != nil {
		shutdown(s.coordHS, s.coordDone)
		s.coord.Close()
		s.coord = nil
		s.transport.base.(*http.Transport).CloseIdleConnections()
	}
	for _, nd := range s.nodes {
		nd.close()
	}
	s.nodes = nil
	s.client.CloseIdleConnections()
}

// call performs one setup request and decodes a 2xx JSON answer into
// out (when non-nil).
func (s *system) call(method, path string, body []byte, out any) error {
	return callURL(s.client, method, s.entry+path, body, out)
}

func callURL(c *http.Client, method, u string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %.300s", method, u, resp.StatusCode, b)
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}
