package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzJSONLRoundTrip pins the JSONL decoder/encoder pair to a strict
// round-trip property: any line the decoder accepts must re-encode to a
// canonical form that decodes to the same event and is byte-stable from
// then on. Lines the decoder rejects are fine — the property only
// constrains accepted inputs, so the strict per-kind field rules can
// reject as much as they like without failing the fuzzer.
func FuzzJSONLRoundTrip(f *testing.F) {
	for _, line := range jsonlSeedLines(f) {
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, line string) {
		ev, err := parseJSONLLine(strings.TrimSpace(line))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		enc := ev.AppendJSONL(nil)
		got, err := parseJSONLLine(strings.TrimSpace(string(enc)))
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v\nline %q\nencoded %q", err, line, enc)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("round trip mismatch:\nline    %q\nparsed  %+v\nreparse %+v", line, ev, got)
		}
		enc2 := got.AppendJSONL(nil)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not byte-stable:\nfirst  %q\nsecond %q", enc, enc2)
		}
	})
}

// jsonlSeedLines is FuzzJSONLRoundTrip's seed corpus: one line per
// event kind from the golden sample set, plus hand-written edge cases.
func jsonlSeedLines(tb testing.TB) []string {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleEvents()); err != nil {
		tb.Fatal(err)
	}
	return append(strings.Split(strings.TrimSpace(buf.String()), "\n"),
		`{"t":0,"k":"state","n":0,"i":0,"from":"Invalid","to":"Shared","a":0,"b":0}`,
		`{"t":9,"k":"txn-begin","n":2,"i":4,"txn":77,"par":3,"a":1,"b":0}`,
		`not json`)
}
