package obs

import (
	"strings"
	"testing"
)

// TestRegistryWellFormed pins the shape of the name registry: unique,
// non-empty, dot-namespaced names; prefixes that end in a dot and shadow
// no static name.
func TestRegistryWellFormed(t *testing.T) {
	names := RegisteredNames()
	seen := make(map[string]bool)
	for _, name := range names {
		if name == "" {
			t.Error("empty registered name")
			continue
		}
		if seen[name] {
			t.Errorf("duplicate registered name %q", name)
		}
		seen[name] = true
		dot := strings.IndexByte(name, '.')
		if dot <= 0 || dot == len(name)-1 {
			t.Errorf("registered name %q is not <package>.<metric>", name)
		}
		if strings.ToLower(name) != name || strings.ContainsAny(name, " \t") {
			t.Errorf("registered name %q is not lowercase snake-case", name)
		}
	}
	for _, p := range RegisteredPrefixes() {
		if !strings.HasSuffix(p, ".") {
			t.Errorf("registered prefix %q must end with '.'", p)
		}
		for _, name := range names {
			if strings.HasPrefix(name, p) {
				t.Errorf("static name %q is shadowed by dynamic prefix %q", name, p)
			}
		}
	}
}
