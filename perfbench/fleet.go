package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"dexpander/internal/obs"
	"dexpander/internal/service"
)

// server is one in-process service behind a loopback HTTP listener.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg service.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	svc := service.New(cfg)
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("perfbench: serve %s: %v\n", s.url, err)
		}
	}()
	return s, nil
}

// close stops the listener, waits for the serve loop, then drains the
// service's worker pool.
func (s *server) close() {
	s.http.Close()
	<-s.done
	s.svc.Close()
}

// fleet is the set of servers one workload talks to; servers[0] is the
// one its clients address (the coordinator when there are replicas).
type fleet struct {
	servers []*server
	tracer  *obs.Tracer
	http    *http.Client
	warm    *window // the untimed warm-up operations of the setup
}

// newFleet boots the replicas (each with its own config) and then the
// front server, which is given the replicas' URLs as its peers.
func newFleet(front service.Config, replicas int, tr *obs.Tracer) (*fleet, error) {
	f := &fleet{
		tracer: tr,
		warm:   newWindow(),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
	}
	var peers []string
	for i := 0; i < replicas; i++ {
		s, err := startServer(service.Config{Tracer: tr})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		peers = append(peers, s.url)
	}
	front.Peers = peers
	front.Tracer = tr
	s, err := startServer(front)
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append([]*server{s}, f.servers...)
	return f, nil
}

// close stops every server and drops them, so their memory can be
// collected while the fleet's warm-up record is still in use.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.close()
	}
	f.servers = nil
	f.http.CloseIdleConnections()
}

// client returns a client of the front server acting for tenant.
func (f *fleet) client(tenant string) *service.Client {
	return &service.Client{Base: f.servers[0].url, Tenant: tenant, HTTP: f.http}
}

// stats fetches the front server's counters.
func (f *fleet) stats() (*service.Stats, error) {
	return f.client("").ServerStats(context.Background())
}

// issue performs one client call as operation o: it times the call and,
// when the fleet traces, wraps it in a "bench.<kind>" span whose trace
// ID is also sent as the request ID, so the server's spans of the
// operation share the benchmark's trace.
func (f *fleet) issue(cl *service.Client, id string, o op, call func(ctx context.Context) (*service.Result, *service.Snapshot, error)) op {
	var sp *obs.Span
	if f.tracer != nil {
		sp = f.tracer.Root(id, "bench."+o.kind)
		cl.RequestID = id
		o.trace = id
	}
	start := time.Now()
	res, snap, err := call(context.Background())
	o.lat = time.Since(start)
	if err != nil {
		o.fail = failClass(err)
		sp.Attr("outcome", o.fail)
	}
	sp.End()
	o.res, o.snap = res, snap
	return o
}

// request is one operation of a workload's sequence: the input graph it
// targets (an index into the workload's inputs) and, for queries, its
// typed params. Requests are comparable, so equal requests key one
// expected answer.
type request struct {
	graph  int
	params service.Params // nil for uploads and releases
}

// query sends a query to snapshot id through the endpoint its params
// type names.
func query(ctx context.Context, cl *service.Client, id string, p service.Params) (*service.Result, error) {
	switch p := p.(type) {
	case service.DecomposeParams:
		return cl.Decompose(ctx, id, p)
	case service.CountParams:
		return cl.TriangleCount(ctx, id, p)
	case service.EnumerateParams:
		return cl.Enumerate(ctx, id, p)
	case service.DistCountParams:
		return cl.TriangleCountDist(ctx, id, p)
	}
	return nil, fmt.Errorf("unsupported params %T", p)
}

// issueQuery issues r against the snapshot id as an op of the given kind.
func (f *fleet) issueQuery(cl *service.Client, traceID, kind, id string, r request, compute bool) op {
	o := op{kind: kind, req: r, compute: compute}
	return f.issue(cl, traceID, o, func(ctx context.Context) (*service.Result, *service.Snapshot, error) {
		res, err := query(ctx, cl, id, r.params)
		return res, nil, err
	})
}
