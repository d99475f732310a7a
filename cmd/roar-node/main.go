// Command roar-node runs one ROAR data server and registers it with the
// membership server. It stores encrypted metadata replicas for its ring
// range and answers sub-queries.
//
//	roar-node -listen 127.0.0.1:0 -member 127.0.0.1:7000 -speed 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"roar/internal/coordclient"
	"roar/internal/debughttp"
	"roar/internal/index"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "address to serve on")
		member   = flag.String("member", "", "membership server address(es), comma-separated for a replicated control plane (optional)")
		mbits    = flag.Int("mbits", 0, "PPS filter size in bits (0 = full default encoding)")
		threads  = flag.Int("threads", 1, "matching threads")
		speed    = flag.Float64("speed", 0, "throttle to N objects/s (0 = unthrottled)")
		hint     = flag.Float64("hint", 1, "speed hint reported at join")
		idxFiles = flag.String("index", "", "comma-separated roaring segment files to serve plaintext queries from")
		idxMem   = flag.Int64("index-budget", 0, "posting-cache memory budget in bytes (0 = 32 MiB default)")
		dbgAddr  = flag.String("debug-addr", "", "serve /debug/pprof/ and /debug/vars on this address (empty = off)")
	)
	flag.Parse()
	dbg, err := debughttp.Serve(*dbgAddr)
	if err != nil {
		fatal(err)
	}
	defer dbg.Close()
	if dbg != nil {
		fmt.Printf("debug endpoints on http://%s/debug/\n", dbg.Addr())
	}

	params := pps.ServerParams{MBits: *mbits}
	if *mbits == 0 {
		params = pps.NewEncoder(pps.MasterKey{}, pps.EncoderConfig{}).ServerParams()
	}
	cfg := node.Config{
		Params:        params,
		MatchThreads:  *threads,
		ObjectsPerSec: *speed,
	}
	if *idxFiles != "" {
		ix := index.New(*idxMem)
		for _, path := range strings.Split(*idxFiles, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			if err := ix.AddFile(path); err != nil {
				fatal(err)
			}
		}
		cfg.Index = ix
		fmt.Printf("loaded plaintext index: %d docs across %d segments (budget %d B)\n",
			ix.Docs(), len(ix.Segments()), ix.Cache().Budget())
	}
	n, err := node.New(cfg)
	if err != nil {
		fatal(err)
	}
	srv, err := n.Serve(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("roar-node serving on %s (mbits=%d threads=%d)\n", srv.Addr(), params.MBits, *threads)

	if *member != "" {
		// -member accepts one coordinator or a comma-separated replica
		// list; the failover client follows leader redirects, so the
		// join lands wherever the lease currently lives.
		var peers []string
		for _, p := range strings.Split(*member, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		cl, err := coordclient.New(peers, coordclient.Config{})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		var resp proto.JoinResp
		if err := cl.Call(context.Background(), proto.MMemberJoin,
			proto.JoinReq{Addr: srv.Addr(), SpeedHint: *hint}, &resp); err != nil {
			fatal(fmt.Errorf("joining %s: %w", *member, err))
		}
		fmt.Printf("joined as node %d on ring %d at %.6f\n", resp.ID, resp.Ring, resp.Start)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roar-node:", err)
	os.Exit(1)
}
