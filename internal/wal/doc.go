// Package wal gives the storage engine durability: a write-ahead log of
// every applied mutation, replayed on startup to reconstruct the database.
//
// The log (see Log in log.go) is a directory of binary segments —
// length-prefixed, CRC32C-checksummed records, size-based rotation,
// group-committed fsyncs, background compaction of sealed segments, and
// parallel torn-tail-tolerant recovery.
//
// The log is *physical-redo* style: every mutation is appended in apply
// order, and rolled-back transactions appear as their operations followed
// by compensating operations and a commit, so a full replay always
// converges to the exact pre-crash committed state. Every record reaches
// the catalog through an Applier (apply.go), which publishes a
// transaction's rows only at its commit record: a transaction with no
// commit record does not survive replay, and whoever takes the log over
// rolls it back, so the log itself closes it. Coordination state (the
// pending-query tables) is deliberately volatile, like the demo system:
// pending entangled queries belong to live sessions; installed answers live
// in ordinary tables and are durable.
package wal
