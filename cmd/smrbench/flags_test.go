package main

import (
	"reflect"
	"testing"

	hpbrcu "github.com/smrgo/hpbrcu"
)

func TestParseSchemes(t *testing.T) {
	tests := []struct {
		in      string
		want    []hpbrcu.Scheme
		wantErr bool
	}{
		{"RCU", []hpbrcu.Scheme{hpbrcu.RCU}, false},
		{"rcu", []hpbrcu.Scheme{hpbrcu.RCU}, false},
		{"HP-BRCU,HP-RCU", []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU}, false},
		// The satellite bug: repeated names used to run the experiment
		// once per occurrence. Dedupe preserves first-occurrence order.
		{"RCU,rcu", []hpbrcu.Scheme{hpbrcu.RCU}, false},
		{"hp-brcu,RCU,HP-BRCU", []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.RCU}, false},
		{"bogus", nil, true},
		{"RCU,bogus", nil, true},
		{"", nil, true},
	}
	for _, tc := range tests {
		got, err := parseSchemes(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseSchemes(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSchemes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParseSchemesCoversAll ensures every registered scheme's printed
// name round-trips through the parser, so new schemes are selectable by
// -schemes without touching the parser.
func TestParseSchemesCoversAll(t *testing.T) {
	for _, s := range hpbrcu.Schemes {
		got, err := parseSchemes(s.String())
		if err != nil || len(got) != 1 || got[0] != s {
			t.Errorf("scheme %v does not round-trip: %v, %v", s, got, err)
		}
	}
}
