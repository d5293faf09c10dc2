// Command app is the fixture's only program.
package main

import (
	"flag"
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/other"
)

// flags holds the command line.
type flags struct{ n int }

func main() {
	var f flags
	flag.IntVar(&f.n, "n", 0, "a flag-backed value")
	flag.Parse()
	fmt.Println(lib.Live{}, lib.Sized{}, other.Twice(1), other.Derive(lib.Options{FromFlag: f.n}))
}
