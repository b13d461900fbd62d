package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/planstore"
)

// cmdStore is the offline plan-store toolbox:
//
//	bmpcast store stats   -dir <dir>   entry/byte counts and health flags
//	bmpcast store compact -dir <dir>   rewrite the log, dropping skipped records
//	bmpcast store verify  -dir <dir>   what the open truncated or skipped
//
// The directory is the one `bmpcast serve -store` writes. All three
// open the store the same way the daemon does — a torn tail left by a
// crash is truncated away and reported, never fatal. verify prints one
// problem line per record that open truncated or skipped and exits
// non-zero when there is one, so it slots into CI and cron health
// checks as-is. The open has already cut a torn tail by then, so a
// second verify passes; skipped records stay until compact.
func cmdStore(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("store: expected one of stats|compact|verify")
	}
	op := args[0]
	fs := flag.NewFlagSet("store "+op, flag.ExitOnError)
	dir := fs.String("dir", "", "plan store directory (required; the `bmpcast serve -store` directory)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store %s: -dir is required", op)
	}
	s, err := planstore.Open(planstore.Config{Dir: *dir})
	if err != nil {
		return fmt.Errorf("store %s: %w", op, err)
	}
	defer s.Close()

	switch op {
	case "stats":
		return storeStats(stdout, s)
	case "compact":
		return storeCompact(stdout, s)
	case "verify":
		return storeVerify(stdout, s)
	default:
		return fmt.Errorf("store: unknown operation %q (stats|compact|verify)", op)
	}
}

func storeStats(stdout io.Writer, s *planstore.Store) error {
	st := s.Stats()
	fmt.Fprintf(stdout, "entries   %d\n", st.Entries)
	fmt.Fprintf(stdout, "bytes     %d\n", st.Bytes)
	fmt.Fprintf(stdout, "truncated %d\n", st.Truncated)
	fmt.Fprintf(stdout, "skipped   %d\n", st.Skipped)
	if st.Truncated > 0 {
		fmt.Fprintln(stdout, "note: a torn tail was truncated on open (crash recovery)")
	}
	if st.Skipped > 0 {
		fmt.Fprintln(stdout, "note: skipped records waste log space; run `bmpcast store compact`")
	}
	return nil
}

func storeCompact(stdout io.Writer, s *planstore.Store) error {
	before := s.Stats()
	reclaimed, err := s.Compact()
	if err != nil {
		return fmt.Errorf("store compact: %w", err)
	}
	st := s.Stats()
	fmt.Fprintf(stdout, "compacted: %d entries, %d -> %d bytes (%d reclaimed)\n",
		st.Entries, before.Bytes, st.Bytes, reclaimed)
	return nil
}

func storeVerify(stdout io.Writer, s *planstore.Store) error {
	st := s.Stats()
	fmt.Fprintf(stdout, "verified %d records / %d bytes\n", st.Entries, st.Bytes)
	for _, p := range st.Problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	if n := len(st.Problems); n > 0 {
		return fmt.Errorf("store verify: %d problem(s) found", n)
	}
	fmt.Fprintln(stdout, "ok")
	return nil
}
