package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coord"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestRecoverEveryRecordPrefix runs a fixed script with the WAL on — pairs, a
// 3-way group, a group booking across two answer relations, an explicitly
// rolled-back transaction, a committed multi-statement transaction and plain
// DML — then recovers a copy of every record-boundary prefix of the log, as
// a crash at that point would leave it. For every prefix:
//
//   - every coordination is installed for all of its members or for none;
//   - the recovered state equals the state recovered at the last commit
//     point in the prefix (a commit record, or an untagged record, which is
//     its own atomic unit): records after it change nothing;
//   - where the prefix ends a script step, the recovered state equals the
//     state the live system had after that step;
//   - rows of the rolled-back transaction are never visible.
func TestRecoverEveryRecordPrefix(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{WALPath: dir, CoordShards: 1, WALCompactAfter: -1}
	s := NewSystem(cfg)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	// steps maps the record count at the end of each script step to the
	// live state's digest there.
	steps := map[int][32]byte{}
	step := func() { steps[int(s.WAL().Stats().Records)] = wal.StateDigest(s.cat) }
	exec := func(stmts ...string) {
		t.Helper()
		sess := NewSession(s)
		for _, q := range stmts {
			if _, err := sess.Execute(q, ""); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		step()
	}
	coordinate := func(queries ...string) {
		t.Helper()
		hs := make([]*coord.Handle, len(queries))
		for i, q := range queries {
			h, err := s.Submit(q, fmt.Sprint("u", i))
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		for _, h := range hs {
			wait(t, h)
		}
		step()
	}
	flight := func(self string, friends ...string) string {
		q := fmt.Sprintf("SELECT '%s', fno INTO ANSWER Reservation WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')", self)
		for _, f := range friends {
			q += fmt.Sprintf(" AND ('%s', fno) IN ANSWER Reservation", f)
		}
		return q + " CHOOSE 1"
	}
	trip := func(self, friend string) string {
		return fmt.Sprintf(`SELECT ('%[1]s', fno) INTO ANSWER Reservation, ('%[1]s', hno) INTO ANSWER HotelReservation
			WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
			AND hno IN (SELECT hno FROM Hotels WHERE city='Paris')
			AND ('%[2]s', fno) IN ANSWER Reservation
			AND ('%[2]s', hno) IN ANSWER HotelReservation
			CHOOSE 1`, self, friend)
	}
	groups := [][]string{{"K", "J"}, {"A", "B", "C"}, {"Jerry", "Kramer"}, {"P", "Q"}}

	exec("CREATE TABLE Flights (fno INT, dest STRING, PRIMARY KEY (fno))",
		"INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome')")
	exec("CREATE TABLE Hotels (hno INT, city STRING, PRIMARY KEY (hno))",
		"INSERT INTO Hotels VALUES (7, 'Paris'), (8, 'Paris'), (9, 'Rome')")
	coordinate(flight("K", "J"), flight("J", "K"))
	coordinate(flight("A", "B", "C"), flight("B", "A", "C"), flight("C", "A", "B"))
	coordinate(trip("Jerry", "Kramer"), trip("Kramer", "Jerry"))
	exec("BEGIN",
		"INSERT INTO Flights VALUES (999, 'Oslo')",
		"UPDATE Flights SET dest = 'Oslo' WHERE fno = 122",
		"DELETE FROM Hotels WHERE hno = 9",
		"ROLLBACK")
	exec("BEGIN",
		"INSERT INTO Flights VALUES (124, 'Paris')",
		"UPDATE Hotels SET city = 'Lyon' WHERE hno = 9",
		"COMMIT")
	exec("INSERT INTO Flights VALUES (125, 'Rome')")
	exec("UPDATE Flights SET dest = 'Paris' WHERE fno = 136")
	exec("DELETE FROM Flights WHERE fno = 125")
	coordinate(flight("P", "Q"), flight("Q", "P"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "00000001.wal")
	if m, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(m) != 1 || m[0] != seg {
		t.Fatalf("want the log in one segment, have %v", m)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := wal.DecodeShipped(data, true)
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the byte length of the k-record prefix: the 8-byte segment
	// header, then frames of a 4-byte length, a 4-byte checksum and the
	// payload.
	ends := []int{8}
	for off := 8; off < len(data); {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	if len(ends) != len(recs)+1 || ends[len(recs)] != len(data) {
		t.Fatalf("frame walk found %d records in %d bytes; the decoder %d", len(ends)-1, len(data), len(recs))
	}
	if _, ok := steps[len(recs)]; !ok {
		t.Fatalf("the last step does not end the log (%d records)", len(recs))
	}

	base := t.TempDir()
	digests := make([][32]byte, len(recs)+1)
	lastCommit := 0
	for k := range digests {
		if k > 0 && (recs[k-1].Op == storage.OpCommit || recs[k-1].Txn == 0) {
			lastCommit = k
		}
		cut := filepath.Join(base, fmt.Sprint(k))
		if err := os.MkdirAll(cut, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cut, "00000001.wal"), data[:ends[k]], 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewSystem(Config{WALPath: cut, CoordShards: 1, WALCompactAfter: -1})
		if err := r.Err(); err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		digests[k] = wal.StateDigest(r.cat)
		present := map[string]int{}
		for _, rel := range []string{"Reservation", "HotelReservation"} {
			if tbl, err := r.cat.Get(rel); err == nil {
				tbl.Scan(func(_ storage.RowID, row value.Tuple) bool {
					present[row[0].Str()]++
					return true
				})
			}
		}
		for _, g := range groups {
			n := 0
			for _, m := range g {
				if present[m] > 0 {
					n++
				}
			}
			if n != 0 && n != len(g) {
				t.Errorf("prefix %d (after %s): coordination %v visible with %d of %d members", k, recs[k-1].Op, g, n, len(g))
			}
		}
		if res, err := r.Query("SELECT fno FROM Flights WHERE fno = 999 OR dest = 'Oslo'"); err == nil && len(res.Rows) > 0 {
			t.Errorf("prefix %d: rows of the rolled-back transaction visible: %v", k, res.Rows)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		os.RemoveAll(cut) //nolint:errcheck // best-effort scratch cleanup

		if digests[k] != digests[lastCommit] {
			t.Errorf("prefix %d (after %s, txn %d): state differs from the last commit point, prefix %d", k, recs[k-1].Op, recs[k-1].Txn, lastCommit)
		}
		if want, ok := steps[k]; ok && digests[k] != want {
			t.Errorf("prefix %d: recovered state differs from the live state after that step", k)
		}
	}
}
