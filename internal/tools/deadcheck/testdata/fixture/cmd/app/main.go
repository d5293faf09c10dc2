// Command app is the fixture's only program.
package main

import (
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	fmt.Println(lib.Live{}, other.Twice(1))
}
