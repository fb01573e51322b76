package main

// Pure flag-value parsers, extracted from main so they are testable
// without tripping os.Exit: main's thin wrapper turns an error into the
// usual usage failure.

import (
	"fmt"
	"strings"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// parseSchemes parses the -schemes filter case-insensitively, preserving
// order and dropping duplicates so `-schemes=RCU,rcu` runs each
// experiment once.
func parseSchemes(s string) ([]hpbrcu.Scheme, error) {
	byName := make(map[string]hpbrcu.Scheme, len(hpbrcu.Schemes))
	for _, sc := range hpbrcu.Schemes {
		byName[strings.ToLower(sc.String())] = sc
	}
	seen := make(map[hpbrcu.Scheme]bool)
	var out []hpbrcu.Scheme
	for _, name := range strings.Split(s, ",") {
		sc, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", name)
		}
		if seen[sc] {
			continue
		}
		seen[sc] = true
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty scheme filter %q", s)
	}
	return out, nil
}
