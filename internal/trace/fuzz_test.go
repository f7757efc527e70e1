package trace

import (
	"bytes"
	"strings"
	"testing"
)

// unknownObjectTraces are one-node traces whose transaction names an
// object the trace does not have: Timeline used to index Objects with it
// and panic.
var unknownObjectTraces = []string{
	`{"topology":"one","nodes":1,"edges":[],"objects":[],"txns":[{"node":0,"objects":[5]}],"scheduler":"s","decisions":[]}`,
	`{"topology":"one","nodes":1,"edges":[],"objects":[],"txns":[{"node":0,"objects":[-1]}],"scheduler":"s","decisions":[]}`,
}

func TestTimelineRefusesUnknownObject(t *testing.T) {
	for _, in := range unknownObjectTraces {
		r, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if tl, err := r.Timeline(); err == nil || !strings.Contains(err.Error(), "unknown object") {
			t.Errorf("%s: timeline %q, error %v; want the unknown object refused", in, tl, err)
		}
	}
}

// FuzzTraceRead feeds arbitrary bytes to Read; whatever parses must go
// through Validate and Timeline with an error or a result, never a panic.
// A timeline that renders starts with the run's header.
func FuzzTraceRead(f *testing.F) {
	_, r := captureRun(f)
	var captured bytes.Buffer
	if err := r.Write(&captured); err != nil {
		f.Fatal(err)
	}
	f.Add(captured.Bytes())
	degradeRun(f, r)
	var abandoned bytes.Buffer
	if err := r.Write(&abandoned); err != nil {
		f.Fatal(err)
	}
	f.Add(abandoned.Bytes())
	for _, in := range unknownObjectTraces {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = r.Validate()
		if tl, err := r.Timeline(); err == nil && !strings.HasPrefix(tl, "run ") {
			t.Errorf("timeline without its header: %q", tl)
		}
	})
}
