// Package server exposes a Youtopia system over TCP so the middle tier can
// run in a separate process, as in the paper's three-tier deployment
// (browser → middle tier → Youtopia).
//
// # Wire protocol v2
//
// Length-prefixed binary frames (see frame.go for the exact layout). The
// client opens with the 4-byte preamble "YTP2", then both sides exchange
// frames of `uint32 LE length | kind | correlation id (uvarint) | body`.
// Frames are typed by kind — request, result header, row batch, entangled
// ack, async event, typed admin response, error — so asynchronous
// coordination events are structurally distinct from replies instead of
// being flagged by a magic id. Many requests may be in flight on one
// connection (pipelining/multiplexing); replies are correlated by id.
// Values round-trip exactly: int64 is a varint on the wire, never a float64.
// Result sets stream as a header frame plus row batches. Admin responses
// are structured (coord.StatsSnapshot, []coord.ShardInfo,
// []coord.PendingInfo, core.WALStats) and rendered client-side.
//
// Prepared statements (Client.Prepare → server.Stmt): kindPrepare ships a
// statement's SQL text once and returns a per-connection statement id plus
// its parameter count and entangled flag; kindExecPrepared then carries
// only the id, owner, TTL and a binary-encoded parameter vector (typed
// values — float64 and int64 parameters are bit-exact, with no text
// formatting anywhere), and kindClosePrepared drops the entry. Repeated
// statements stop shipping SQL text at all; the server executes them
// through core's parse-once/bind-many pipeline. Statement ids are scoped
// to their connection and the table dies with it — a disconnect can never
// leak server-side statements.
//
// Entangled answers arrive asynchronously as event frames, exactly like the
// demo's Facebook notifications: the client submits, keeps working, and is
// told later which flight it got.
//
// A connection that does not open with the preamble gets one errBadFrame
// error frame and is closed.
package server

import (
	"fmt"
	"strings"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// renderShards formats per-lane diagnostics; the client renders it from
// []coord.ShardInfo.
func renderShards(shards []coord.ShardInfo) string {
	var b strings.Builder
	for _, si := range shards {
		fmt.Fprintf(&b, "shard %d: pending=%d relations=%v stats=%+v\n",
			si.ID, si.Pending, si.Relations, si.Stats)
	}
	return b.String()
}

// renderWAL formats the durability snapshot (or its absence).
func renderWAL(st core.WALStats, durable bool) string {
	if !durable {
		return "not durable (no WAL configured)\n"
	}
	return st.String()
}

// renderTxn formats the transaction/MVCC counters; the client renders it
// from txn.Stats.
func renderTxn(st txn.Stats) string {
	return fmt.Sprintf(
		"committed=%d aborted=%d timeouts=%d writeConflicts=%d gcReclaimed=%d\n",
		st.Committed, st.Aborted, st.Timeouts, st.WriteConflicts, st.GCReclaimed)
}

// renderPool formats the buffer-pool snapshot (or its absence); the client
// renders it from storage.PoolStats.
func renderPool(st storage.PoolStats, enabled bool) string {
	if !enabled {
		return "no buffer pool (fully in-memory storage)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pool: frames=%d resident=%d dirty=%d hit-ratio=%.1f%% (hits=%d misses=%d) load-waits=%d evictions=%d writebacks=%d\n",
		st.Capacity, st.Resident, st.Dirty, 100*st.HitRatio(), st.Hits, st.Misses, st.LoadWaits, st.Evictions, st.Writebacks)
	if len(st.Shards) > 1 {
		fmt.Fprintf(&b, "shards: %d\n", len(st.Shards))
		for i, sh := range st.Shards {
			fmt.Fprintf(&b, "  shard %-3d frames=%-4d resident=%-4d hits=%d misses=%d evictions=%d\n",
				i, sh.Capacity, sh.Resident, sh.Hits, sh.Misses, sh.Evictions)
		}
	}
	fmt.Fprintf(&b, "heap: spilled-tables=%d pinned-relations=%d pages=%d (%d KiB) free-pages=%d reclaimed=%d dead-slots=%d\n",
		st.SpilledTables, st.PinnedTables, st.HeapPages, st.HeapPages*storage.PageSize/1024,
		st.FreePages, st.ReclaimedPages, st.DeadSlots)
	for _, t := range st.Tables {
		fmt.Fprintf(&b, "  %-24s %d page(s)", t.Name, t.Pages)
		if t.FreePages > 0 {
			fmt.Fprintf(&b, "  free-pages=%d", t.FreePages)
		}
		if t.DeadSlots > 0 {
			fmt.Fprintf(&b, "  dead-slots=%d", t.DeadSlots)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
