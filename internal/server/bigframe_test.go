package server

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestFramesLargerThanReadBuffer round-trips frames several times the
// connection's 4 KiB read buffer in both directions over a real connection:
// an INSERT whose text alone exceeds 64 KiB (read by the server), and a
// SELECT whose full row batches exceed 64 KiB (read by the client). The
// remote rows must equal the same query run in-process.
func TestFramesLargerThanReadBuffer(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	srv, err := Listen(sys, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr().String())

	if _, err := c.Query("CREATE TABLE Big (id INT, s STRING)"); err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", 70_000)
	if res, err := c.Query(fmt.Sprintf("INSERT INTO Big VALUES (0, '%s')", huge)); err != nil || res.Affected != 1 {
		t.Fatalf("large INSERT: %v, %v", res, err)
	}
	const rows = 5_000
	for i := 1; i < rows; i += 500 {
		var b strings.Builder
		b.WriteString("INSERT INTO Big VALUES ")
		for j := i; j < i+500 && j < rows; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%064d%s')", j, j, strings.Repeat("y", 300))
		}
		if _, err := c.Query(b.String()); err != nil {
			t.Fatal(err)
		}
	}

	const q = "SELECT id, s FROM Big ORDER BY id"
	remote, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Rows) != rows || len(local.Rows) != rows {
		t.Fatalf("remote %d rows, in-process %d, want %d", len(remote.Rows), len(local.Rows), rows)
	}
	if remote.Rows[0][1].Str() != huge {
		t.Fatalf("70 000-byte string came back as %d bytes", len(remote.Rows[0][1].Str()))
	}
	for i := range local.Rows {
		if !remote.Rows[i].Equal(local.Rows[i]) {
			t.Fatalf("row %d: remote %v, in-process %v", i, remote.Rows[i], local.Rows[i])
		}
	}
}
