// Quickstart: the paper's §2.1 example, verbatim.
//
// Kramer and Jerry each submit an entangled query asking for a seat on a
// flight to Paris — each conditional on the other being on the same flight.
// Youtopia parks Kramer's query, matches it when Jerry's symmetric query
// arrives, nondeterministically picks one of the mutually acceptable flights,
// and answers both atomically through the shared answer relation.
//
// This quickstart runs in-memory. To make it durable, set
// core.Config.WALPath to a directory: the system then logs every mutation
// in the segmented binary WAL (on-disk format v2 — CRC32C-checksummed
// records, group commit, crash recovery; see examples/durableserver).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
)

func main() {
	sys := core.NewSystem(core.Config{})

	// Figure 1(a): the flight database.
	if err := sys.Exec(`
		CREATE TABLE Flights (fno INT, dest STRING, PRIMARY KEY (fno));
		CREATE TABLE Airlines (fno INT, airline STRING, PRIMARY KEY (fno));
		INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), (136, 'Rome');
		INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), (134, 'Lufthansa'), (136, 'Alitalia');
	`); err != nil {
		log.Fatal(err)
	}

	// Kramer's query — exactly the SQL of §2.1.
	kramer, err := sys.Submit(`
		SELECT 'Kramer', fno INTO ANSWER Reservation
		WHERE
		fno IN (SELECT fno FROM Flights WHERE dest='Paris')
		AND ('Jerry', fno) IN ANSWER Reservation
		CHOOSE 1`, "kramer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Kramer's query registered as q%d — cannot be answered alone, parked.\n", kramer.ID)
	fmt.Printf("Pending queries: %d\n\n", sys.Coordinator().PendingCount())

	// Jerry's symmetric query: names swapped.
	jerry, err := sys.Submit(`
		SELECT 'Jerry', fno INTO ANSWER Reservation
		WHERE
		fno IN (SELECT fno FROM Flights WHERE dest='Paris')
		AND ('Kramer', fno) IN ANSWER Reservation
		CHOOSE 1`, "jerry")
	if err != nil {
		log.Fatal(err)
	}

	done := make(chan struct{})
	timer := time.AfterFunc(2*time.Second, func() { close(done) })
	defer timer.Stop()
	outK, ok := kramer.Wait(done)
	if !ok {
		log.Fatal("Kramer timed out")
	}
	outJ, _ := jerry.Wait(done)

	fmt.Println("Matched! (Figure 1b: mutual constraint satisfaction)")
	fmt.Printf("  Kramer's answer tuple: Reservation%s\n", outK.Answers[0].Tuples[0])
	fmt.Printf("  Jerry's  answer tuple: Reservation%s\n", outJ.Answers[0].Tuples[0])

	// The shared answer relation is an ordinary queryable table.
	res, err := sys.Query("SELECT * FROM Reservation ORDER BY a1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSELECT * FROM Reservation:")
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row)
	}
	fmt.Printf("\nBoth on flight %d — the system chose it nondeterministically among {122, 123, 134}.\n",
		outK.Answers[0].Tuples[0][1].Int())
}
