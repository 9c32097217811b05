package report

import (
	"strings"
	"testing"
)

func TestFprintAlignment(t *testing.T) {
	tab := New("title", "name", "value")
	tab.AddRow("a", "1")
	tab.AddRow("longer", "123")
	var sb strings.Builder
	if err := tab.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("rule line = %q", lines[2])
	}
	// Numbers right-aligned: "1" ends at the same column as "123".
	if !strings.HasSuffix(lines[3], "  1") && !strings.HasSuffix(lines[3], "  1") {
		t.Errorf("row = %q", lines[3])
	}
	iv, i123 := strings.Index(lines[3], "1"), strings.Index(lines[4], "123")
	if iv+1 != i123+3 {
		t.Errorf("right alignment broken: %q vs %q", lines[3], lines[4])
	}
	// First column left-aligned.
	if !strings.HasPrefix(lines[3], "a ") {
		t.Errorf("label not left aligned: %q", lines[3])
	}
}

func TestFprintNoTitleNoHeaders(t *testing.T) {
	tab := &Table{}
	tab.AddRow("x", "y")
	var sb strings.Builder
	if err := tab.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "--") {
		t.Error("rule printed without headers")
	}
}

func TestRaggedRows(t *testing.T) {
	tab := New("", "a", "b")
	tab.AddRow("1")
	tab.AddRow("1", "2", "3")
	var sb strings.Builder
	if err := tab.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3") {
		t.Error("extra cell dropped")
	}
}
