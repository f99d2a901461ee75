// Command youtopia-server runs Youtopia as a standalone database process the
// middle tier connects to over TCP — the deployment shape of the paper's
// three-tier demo architecture (Figure 2). Connections speak wire protocol
// v2 (length-prefixed binary frames, multiplexed requests, typed admin
// responses); a connection that opens with anything else gets one error
// frame and is closed. See internal/server.
//
// Inspect a running server with `youtopia-admin -connect ADDR [-json]`;
// load it with `loadgen -net ADDR`.
//
// Usage:
//
//	youtopia-server [-addr 127.0.0.1:7717] [-seed] [-wal dir] [-walsync]
//	                [-pool-pages N] [-pool-shards N] [-pin rel1,rel2]
//	                [-repl-listen ADDR] [-follow ADDR -primary-addr SQLADDR]
//
// With -pool-pages the storage engine pages cold tables to disk through a
// buffer pool of that many 8 KiB frames, so datasets several times larger
// than RAM stay queryable; -pin names hot relations kept fully resident.
// Inspect the pool live with `youtopia-admin -connect ADDR -pool`.
//
// With -wal the database is durably logged (segmented binary format v2,
// legacy JSON logs migrated in place) and recovered on restart; -walsync
// additionally group-commits an fsync at every statement boundary.
//
// Replication (requires -wal): -repl-listen serves the WAL-shipping stream
// to followers; -follow starts this process as a read-only follower pulling
// from a primary's -repl-listen address (-primary-addr names the primary's
// SQL address for client redirects). Promote a follower with
// `youtopia-admin -connect ADDR -promote` — and drop its -follow flag on the
// next restart.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/travel"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7717", "listen address")
	seed := flag.Bool("seed", false, "preload the demo travel catalog")
	walPath := flag.String("wal", "", "write-ahead log directory (enables durability)")
	walSync := flag.Bool("walsync", false, "fsync each statement's records (group-committed)")
	shards := flag.Int("shards", 0, "coordination lanes (0 = GOMAXPROCS, 1 = unsharded)")
	poolPages := flag.Int("pool-pages", 0, "buffer-pool frames of 8 KiB; >0 pages cold tables to disk (datasets beyond RAM)")
	poolShards := flag.Int("pool-shards", 0, "buffer-pool shards (independent latches); 0 auto-sizes to min(GOMAXPROCS, pages/8)")
	pin := flag.String("pin", "", "comma-separated relations kept fully in memory with -pool-pages (answer relations always are)")
	replListen := flag.String("repl-listen", "", "serve the replication stream to followers at this address (requires -wal)")
	follow := flag.String("follow", "", "run as a follower of the primary's -repl-listen address (requires -wal)")
	primaryAddr := flag.String("primary-addr", "", "with -follow: the primary's SQL address, used in client redirects")
	flag.Parse()

	if (*replListen != "" || *follow != "") && *walPath == "" {
		log.Fatal("replication requires -wal: the stream ships WAL segments")
	}

	cfg := core.Config{
		WALPath: *walPath, WALSync: *walSync, CoordShards: *shards,
		WALFollower:      *follow != "",
		BufferPoolPages:  *poolPages,
		BufferPoolShards: *poolShards,
	}
	if *pin != "" {
		for _, name := range strings.Split(*pin, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.PinnedRelations = append(cfg.PinnedRelations, name)
			}
		}
	}
	sys := core.NewSystem(cfg)
	if err := sys.Err(); err != nil {
		log.Fatal(err)
	}
	// A follower's state comes from the primary's stream; seeding locally
	// would fork its history before the first byte arrives.
	if *seed && *follow == "" && !sys.Catalog().Has("Flights") {
		if err := travel.Seed(sys, travel.SeedConfig{Seed: 1}); err != nil {
			log.Fatal(err)
		}
	}

	var node *repl.Node
	if *replListen != "" || *follow != "" {
		var err error
		node, err = repl.Start(repl.Config{
			System:            sys,
			Dir:               *walPath,
			ListenAddr:        *replListen,
			PrimaryAddr:       *follow,
			PrimaryClientAddr: *primaryAddr,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	srv, err := server.Listen(sys, *addr)
	if err != nil {
		log.Fatal(err)
	}
	role := "primary"
	if *follow != "" {
		role = "follower of " + *follow
	}
	fmt.Printf("youtopia-server listening on %s (wal=%q, role=%s)\n", srv.Addr(), *walPath, role)
	if node != nil && node.Addr() != "" {
		fmt.Printf("replication stream on %s (epoch %d)\n", node.Addr(), node.Epoch())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
	srv.Close()
	if node != nil {
		node.Close()
	}
	sys.Close()
}
