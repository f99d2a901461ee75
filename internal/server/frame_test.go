package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/wal"
)

func TestFrameRequestRoundTrip(t *testing.T) {
	var f frameBuf
	if err := f.appendExec(7, "SELECT * FROM T", "jerry", 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := f.appendCancel(8, 42); err != nil {
		t.Fatal(err)
	}
	if err := f.appendAdmin(9, adminShards); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(bytes.NewReader(f.b))
	var buf []byte
	var reqs []request
	for i := 0; i < 3; i++ {
		payload, err := readFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = payload
		req, err := decodeRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	if reqs[0].id != 7 || reqs[0].sql != "SELECT * FROM T" || reqs[0].owner != "jerry" || reqs[0].ttl != 1500*time.Millisecond {
		t.Errorf("exec = %+v", reqs[0])
	}
	if reqs[1].id != 8 || reqs[1].query != 42 {
		t.Errorf("cancel = %+v", reqs[1])
	}
	if reqs[2].id != 9 || reqs[2].admin != adminShards {
		t.Errorf("admin = %+v", reqs[2])
	}
}

// TestFrameValueRoundTrip: every value type round-trips exactly — including
// int64 beyond float64's 2^53 integer range.
func TestFrameValueRoundTrip(t *testing.T) {
	row := value.Tuple{
		value.Null,
		value.NewInt(1<<60 + 1),
		value.NewInt(-(1<<62 + 3)),
		value.NewFloat(math.Pi),
		value.NewString("naïve\x00bytes"),
		value.NewBool(true),
	}
	var f frameBuf
	if err := f.appendResult(3, []string{"a", "b", "c", "d", "e", "f"}, []value.Tuple{row}, 1); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(f.b))
	var got value.Tuple
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			break
		}
		buf = payload
		rp, err := decodeReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rp.kind == kindRows {
			got = rp.rows[0]
		}
	}
	if len(got) != len(row) {
		t.Fatalf("row = %v", got)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Errorf("position %d: %v != %v", i, got[i], row[i])
		}
	}
	if got[1].Int() != 1<<60+1 {
		t.Errorf("int64 lost precision: %d", got[1].Int())
	}
}

func TestFrameRowBatching(t *testing.T) {
	rows := make([]value.Tuple, 1000)
	for i := range rows {
		rows[i] = value.Tuple{value.NewInt(int64(i))}
	}
	var f frameBuf
	if err := f.appendResult(1, []string{"x"}, rows, 0); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(f.b))
	var buf []byte
	batches, total := 0, 0
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			break
		}
		buf = payload
		rp, err := decodeReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rp.kind == kindRows {
			batches++
			if len(rp.rows) > rowBatchRows {
				t.Fatalf("batch of %d exceeds %d", len(rp.rows), rowBatchRows)
			}
			for _, r := range rp.rows {
				if r[0].Int() != int64(total) {
					t.Fatalf("row %d out of order: %v", total, r)
				}
				total++
			}
		}
	}
	if total != 1000 || batches != 4 {
		t.Fatalf("streamed %d rows in %d batches", total, batches)
	}
}

func TestFrameEventRoundTrip(t *testing.T) {
	out := coord.Outcome{
		QueryID:   99,
		MatchSize: 3,
		Answers: []coord.Answer{
			{Relation: "Reservation", Tuples: []value.Tuple{
				{value.NewString("jerry"), value.NewInt(122)},
			}},
			{Relation: "HotelReservation", Tuples: []value.Tuple{
				{value.NewString("jerry"), value.NewInt(7)},
			}},
		},
	}
	var f frameBuf
	if err := f.appendEvent(out); err != nil {
		t.Fatal(err)
	}
	rp := mustDecodeOne(t, f.b)
	if rp.kind != kindEvent {
		t.Fatalf("kind = %#x", rp.kind)
	}
	if !reflect.DeepEqual(rp.event, out) {
		t.Errorf("event = %+v, want %+v", rp.event, out)
	}
}

func TestFrameAdminRoundTrip(t *testing.T) {
	stats := coord.StatsSnapshot{Submitted: 10, Answered: 8, Matches: 4, Parked: 2,
		Canceled: 1, Expired: 1, Retries: 5, Escalations: 3, NodesExplored: 1234,
		GroundingAttempts: 40, GroundingFailures: 4}
	var f frameBuf
	if err := f.appendAdminStats(1, stats); err != nil {
		t.Fatal(err)
	}
	if rp := mustDecodeOne(t, f.b); rp.stats != stats {
		t.Errorf("stats = %+v", rp.stats)
	}

	shards := []coord.ShardInfo{
		{ID: 0, Pending: 3, Relations: []string{"hotelreservation", "reservation"}, Stats: stats},
		{ID: 1, Pending: 0, Relations: nil, Stats: coord.StatsSnapshot{}},
	}
	f.reset()
	if err := f.appendAdminShards(2, shards); err != nil {
		t.Fatal(err)
	}
	if rp := mustDecodeOne(t, f.b); !reflect.DeepEqual(rp.shards, shards) {
		t.Errorf("shards = %+v", rp.shards)
	}

	pend := []coord.PendingInfo{{
		ID: 5, Owner: "kramer", Source: "SELECT ...", Logic: "ANSWER(...)",
		Relations: []string{"reservation"}, Waiting: 1500 * time.Millisecond,
	}}
	f.reset()
	if err := f.appendAdminPending(3, pend); err != nil {
		t.Fatal(err)
	}
	if rp := mustDecodeOne(t, f.b); !reflect.DeepEqual(rp.pending, pend) {
		t.Errorf("pending = %+v", rp.pending)
	}

	st := core.WALStats{
		Commits:  wal.CommitStats{Records: 100, Batches: 10, Syncs: 9, Rotations: 2, Compacts: 1},
		Recovery: wal.RecoveryInfo{Records: 50, Segments: 3, Torn: true, TornBytes: 17},
		Segments: []wal.SegmentInfo{
			{Seq: 1, Path: "00000001.wal", Bytes: 4096, Sealed: true, Snapshot: true},
			{Seq: 2, Path: "00000002.wal", Bytes: 128},
		},
	}
	f.reset()
	if err := f.appendAdminWAL(4, st, true); err != nil {
		t.Fatal(err)
	}
	if rp := mustDecodeOne(t, f.b); !reflect.DeepEqual(rp.walStats, st) || !rp.durable {
		t.Errorf("wal = %+v durable=%v", rp.walStats, rp.durable)
	}
	f.reset()
	if err := f.appendAdminWAL(5, core.WALStats{}, false); err != nil {
		t.Fatal(err)
	}
	if rp := mustDecodeOne(t, f.b); rp.durable {
		t.Error("not-durable flag lost")
	}
}

func mustDecodeOne(t *testing.T, frames []byte) reply {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frames))
	payload, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := decodeReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// TestFrameSizeGuard: a corrupt or hostile length prefix is rejected before
// any allocation happens.
func TestFrameSizeGuard(t *testing.T) {
	for _, n := range []uint32{0, maxFrameLen + 1, math.MaxUint32} {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], n)
		_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil)
		if err != errFrameSize {
			t.Errorf("length %d: err = %v, want errFrameSize", n, err)
		}
	}
}

// FuzzFrameDecode pins the decoder's contract: arbitrary payload bytes must
// produce a value or an error — never a panic, never an oversized
// allocation. Both directions of the codec are driven (replies are a
// superset of the request decoder's primitives).
func FuzzFrameDecode(f *testing.F) {
	seedCorpus := func() [][]byte {
		var out [][]byte
		var fb frameBuf
		fb.appendExec(1, "SELECT 1", "o", time.Second) //nolint:errcheck
		out = append(out, append([]byte(nil), fb.b[4:]...))
		fb.reset()
		fb.appendResult(2, []string{"a"}, []value.Tuple{{value.NewInt(1 << 60), value.NewString("x")}}, 1) //nolint:errcheck
		out = append(out, append([]byte(nil), fb.b[4:]...))
		fb.reset()
		fb.appendEvent(coord.Outcome{QueryID: 3, MatchSize: 2, Answers: []coord.Answer{
			{Relation: "R", Tuples: []value.Tuple{{value.NewFloat(2.5)}}}}}) //nolint:errcheck
		out = append(out, append([]byte(nil), fb.b[4:]...))
		fb.reset()
		fb.appendAdminWAL(4, core.WALStats{Segments: []wal.SegmentInfo{{Seq: 1, Path: "p"}}}, true) //nolint:errcheck
		out = append(out, append([]byte(nil), fb.b[4:]...))
		return out
	}
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Add([]byte{kindRows, 1, 255, 255, 255, 255, 15})
	f.Add([]byte{kindAdminResp, 0, adminPending, 200})

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Must not panic; errors are fine.
		decodeRequest(payload) //nolint:errcheck
		decodeReply(payload)   //nolint:errcheck
	})
}
