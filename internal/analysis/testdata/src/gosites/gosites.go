// Fixture for the gosites analyzer: a go statement is a finding unless
// its function is on the allowlist, which names functions by their full
// path. The fixture package path is dtmlintfixture/gosites, so even a
// method spelled like an allowlisted one is a finding here.
package gosites

import "sync"

func fanOut(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() { // want `go statement in fanOut`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

type Graph struct{}

// WarmTrees has an allowlisted name, but not the allowlisted package.
func (g *Graph) WarmTrees(workers int) {
	done := make(chan struct{})
	go close(done) // want `go statement in WarmTrees`
	<-done
}

var background = func() {
	go func() {}() // want `go statement in a package-level func literal`
}

// sequential calls literals, defers and waits on a WaitGroup without
// starting a goroutine. Not a finding.
func sequential(items []int) int {
	var wg sync.WaitGroup
	sum := 0
	for _, it := range items {
		wg.Add(1)
		func() {
			defer wg.Done()
			sum += it
		}()
	}
	wg.Wait()
	return sum
}
