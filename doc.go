// Package repro is a from-scratch Go reproduction of the Youtopia system
// from "Coordination through Querying in the Youtopia System" (SIGMOD 2011):
// a database system in which users coordinate actions by submitting
// entangled queries — SELECT statements with answer constraints that can
// only be satisfied jointly with other users' queries.
//
// The public entry point is internal/core.System; see ARCHITECTURE.md for
// the layer map and the reproduced demonstration scenarios. The benchmarks
// in bench_test.go regenerate every experiment.
//
// Durability: core.Config.WALPath enables the segmented binary write-ahead
// log (on-disk format v2: length-prefixed CRC32C-checksummed records,
// size-based segment rotation, group-committed fsyncs under WALSync,
// background compaction, torn-tail-tolerant parallel recovery). Logs in the
// original single-file JSON format are refused, not read.
//
// Prepared statements: the dialect accepts ? / $n placeholders, and
// core.System.Prepare compiles a statement once into a reusable handle —
// an execution plan for plain SQL, a bound-per-submission coordination
// template for entangled queries — so the paper's repeated query shapes
// pay parsing and compilation once, not per call (parse-once/bind-many).
// A size-bounded LRU behind plain Execute extends the same saving to
// identical re-sent text, and wire protocol v2 carries the lifecycle
// remotely (prepare / exec-with-binary-vector / close), with typed
// int64/float64 parameters that round-trip exactly.
//
// Replication: internal/repl ships the WAL byte-for-byte to follower
// processes that replay it continuously and serve lock-free snapshot
// reads, with catch-up from any position (snapshot re-ship when the
// prefix was compacted away), retention pins, epoch-fenced failover
// promotion, a typed redirect-to-primary error with a retry/backoff
// replica client, and a deterministic fault-injection harness
// (internal/fault) backing a seeded chaos test. See ARCHITECTURE.md
// "Replication and failover" and examples/replicaset.
package repro
