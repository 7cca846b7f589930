package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"dmps/internal/cluster"
	"dmps/internal/metrics"
	"dmps/internal/server"
	"dmps/internal/trace"
	"dmps/internal/transport"
)

// fleetNodes is the number of group-partition nodes behind the router.
const fleetNodes = 2

// fleet is the system under test: one router and fleetNodes nodes in
// this process, on 127.0.0.1 TCP, every node at the default replication
// factor with a write-ahead log in a fresh directory. Clients reach it
// only through the router's address, so every request and delivery
// crosses the loopback interface twice (client↔router↔node).
type fleet struct {
	router    *cluster.Router
	nodes     []*server.Server
	nodeAddrs []string
	pmap      *cluster.Map
	// regs holds one metrics registry per process, router first; the
	// ledger reads counters and stage histograms from their text form.
	regs   []*metrics.Registry
	walDir string
}

// freeAddrs reserves n distinct loopback TCP addresses. The listeners
// close before the fleet binds them; the reuse race is harmless here.
func freeAddrs(n int) ([]string, error) {
	out := make([]string, 0, n)
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out = append(out, l.Addr().String())
		_ = l.Close()
	}
	return out, nil
}

// bootFleet starts the router and nodes. walRoot is the directory the
// per-node WAL directories are created under. The nodes must know each
// other's addresses before they listen, so their ports are reserved and
// released first; if one is taken in between, the boot starts over.
func bootFleet(walRoot string) (*fleet, error) {
	var err error
	for range 3 {
		var f *fleet
		if f, err = tryBoot(walRoot); err == nil {
			return f, nil
		}
	}
	return nil, err
}

func tryBoot(walRoot string) (*fleet, error) {
	addrs, err := freeAddrs(fleetNodes)
	if err != nil {
		return nil, fmt.Errorf("reserve ports: %w", err)
	}
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(walRoot, "wal-")
	if err != nil {
		return nil, err
	}
	f := &fleet{nodeAddrs: addrs, walDir: dir, pmap: cluster.NewMap(addrs)}
	for i := range fleetNodes {
		srv, err := server.New(server.Config{
			Network: transport.TCP{},
			Addr:    f.nodeAddrs[i],
			WALDir:  filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Cluster: &server.ClusterConfig{Nodes: f.nodeAddrs, Self: i},
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		srv.Start()
		f.nodes = append(f.nodes, srv)
	}
	f.router, err = cluster.NewRouter(cluster.RouterConfig{
		Network: transport.TCP{}, Addr: "127.0.0.1:0", Nodes: f.nodeAddrs,
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	f.router.Start()
	reg := metrics.NewRegistry()
	f.router.RegisterMetrics(reg)
	f.regs = append(f.regs, reg)
	for _, n := range f.nodes {
		reg := metrics.NewRegistry()
		n.RegisterMetrics(reg)
		f.regs = append(f.regs, reg)
	}
	return f, nil
}

// addr is the address clients dial.
func (f *fleet) addr() string { return f.router.Addr() }

// planes returns every process's tracing plane, router first.
func (f *fleet) planes() []*trace.Plane {
	out := []*trace.Plane{f.router.TracePlane()}
	for _, n := range f.nodes {
		out = append(out, n.TracePlane())
	}
	return out
}

// close stops every process and removes the WAL directory.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.nodes {
		n.Close()
	}
	_ = os.RemoveAll(f.walDir)
}

// keys returns n names "prefix-k" whose owners (group keys) or homes
// (member names) alternate over the nodes — 0, 1, 0, 1, … — so every
// run spreads the same share of work on each node, whatever ports the
// fleet drew.
func (f *fleet) keys(prefix string, n int) []string {
	out := make([]string, 0, n)
	next := 0
	for i := range n {
		for {
			key := fmt.Sprintf("%s-%d", prefix, next)
			next++
			if f.pmap.Primary(key) == i%fleetNodes {
				out = append(out, key)
				break
			}
		}
	}
	return out
}
