package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := testConfig()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(orig); err != nil {
		t.Fatal(err)
	}
	got, err := ParseConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip changed config:\n%+v\n%+v", orig, got)
	}
}

func TestParseConfigRejectsUnknownField(t *testing.T) {
	js := `{"Name":"x","Seed":1,"Regions":2,"BlocksPerRegion":4,
	        "BlockSize":{"Min":2,"Max":4},"LoopTrip":{"Min":2,"Max":4},
	        "DataFootprint":65536,"Typo":true}`
	if _, err := ParseConfig(strings.NewReader(js)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseConfigRejectsInvalid(t *testing.T) {
	js := `{"Name":"x","Seed":1,"Regions":0,"BlocksPerRegion":4,
	        "BlockSize":{"Min":2,"Max":4},"LoopTrip":{"Min":2,"Max":4},
	        "DataFootprint":65536}`
	if _, err := ParseConfig(strings.NewReader(js)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := ParseConfig(strings.NewReader("{nope")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestParseConfigMinimalValid(t *testing.T) {
	js := `{"Name":"mini","Seed":3,"Regions":2,"BlocksPerRegion":4,
	        "BlockSize":{"Min":2,"Max":4},"LoopTrip":{"Min":2,"Max":8},
	        "DataFootprint":65536}`
	c, err := ParseConfig(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	// It must also actually generate.
	g := MustNew(c, 1000)
	n := 0
	for {
		if _, err := g.Next(); err != nil {
			break
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("generated %d insts", n)
	}
}
