package main

// The msfu store subcommand family: offline maintenance of durable
// result store directories (the -checkpoint / -store format shared by
// msfu, msfud and paperbench).
//
//	msfu store verify DIR            scrub a store, report its health
//	msfu store verify -repair DIR    also truncate a torn tail
//
// verify exits 0 on a clean store, 1 when corruption was found and not
// repaired, and 0 after a successful -repair (the store is clean now;
// what was dropped is reported). Soft findings — records that do not
// decode, duplicate keys — never block reads and never exit non-zero,
// but are always printed.

import (
	"flag"
	"fmt"
	"os"

	"magicstate/internal/store"
)

// storeCmd dispatches "msfu store ..." and returns the process exit
// code.
func storeCmd(args []string) int {
	if len(args) == 0 || args[0] != "verify" {
		fmt.Fprintln(os.Stderr, "usage: msfu store verify [-repair] DIR")
		return 2
	}
	fs := flag.NewFlagSet("msfu store verify", flag.ExitOnError)
	repair := fs.Bool("repair", false, "truncate the store back to its last valid record")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: msfu store verify [-repair] DIR")
		fs.PrintDefaults()
	}
	fs.Parse(args[1:])
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	dir := fs.Arg(0)

	rep, err := store.Scrub(dir, *repair)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msfu store verify: %v\n", err)
		return 1
	}

	fmt.Printf("%s: %d records (%d bytes log)\n", dir, rep.Valid, rep.LogBytes)
	if rep.Valid > rep.Reports {
		fmt.Printf("  records: %d reports, %d other\n",
			rep.Reports, rep.Valid-rep.Reports)
	}
	if rep.Truncated {
		fmt.Printf("  torn tail: %s\n", rep.Reason)
		fmt.Printf("  valid prefix: %d records, %d of %d bytes\n",
			rep.Valid, rep.ValidLogBytes, rep.LogBytes)
		if rep.Repaired {
			fmt.Printf("  repaired: truncated %d bytes past the valid prefix\n", rep.LogBytes-rep.ValidLogBytes)
		} else {
			fmt.Println("  not repaired (run with -repair to truncate, or let the next open do it)")
		}
	} else {
		fmt.Printf("  chain: all %d records verify (header CRC, payload CRC)\n", rep.Valid)
	}
	for _, bad := range rep.BadRecords {
		fmt.Printf("  soft finding: %s\n", bad)
	}
	if rep.Clean() || rep.Repaired {
		fmt.Println("  store is clean")
		return 0
	}
	return 1
}
