package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		ID:      "t1",
		Title:   "Sample",
		Note:    "a note",
		Columns: []string{"name", "value"},
	}
	t.AddRow("alpha", 1)
	t.AddRow("beta, the second", 2.5)
	return t
}

func TestFprintAligns(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "== t1: Sample ==") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "a note") {
		t.Fatal("missing note")
	}
	lines := strings.Split(out, "\n")
	var header, rule string
	for i, l := range lines {
		if strings.Contains(l, "name") {
			header, rule = l, lines[i+1]
			break
		}
	}
	if header == "" || !strings.Contains(rule, "----") {
		t.Fatalf("missing header/rule:\n%s", out)
	}
	// Columns align: "value" starts at the same offset in all rows.
	col := strings.Index(header, "value")
	for _, l := range lines {
		if strings.Contains(l, "alpha") && len(l) > col {
			if l[col] != '1' {
				t.Fatalf("misaligned row: %q (want value at col %d)", l, col)
			}
		}
	}
}

func TestCSVQuotes(t *testing.T) {
	var b strings.Builder
	if err := sample().CSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "name,value") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, `"beta, the second"`) {
		t.Fatalf("comma cell not quoted: %s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2:      "2",
		0.125:  "0.125",
		0.1256: "0.126",
		0:      "0",
		-1.20:  "-1.2",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(0.051); got != "5.1%" {
		t.Errorf("got %q", got)
	}
}

func TestFormatRate(t *testing.T) {
	cases := map[float64]string{
		500:    "500 B/s",
		20e6:   "20.0 MB/s",
		1.1e9:  "1.10 GB/s",
		2500.0: "2.5 KB/s",
	}
	for in, want := range cases {
		if got := FormatRate(in); got != want {
			t.Errorf("FormatRate(%v) = %q, want %q", in, got, want)
		}
	}
}
