package main

import (
	"strings"
	"testing"
)

// TestNegativeSizesRejected checks that every size flag rejects a
// negative value with an error naming the flag, where the generators and
// stream builders would otherwise panic or silently accept it.
func TestNegativeSizesRejected(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		flag string // "" = must succeed
	}{
		{"n", func() error { _, err := makeGraph("gnp", -5, 8, 0, 1); return err }, "-n"},
		{"deg", func() error { _, err := makeGraph("cliquechain", 10, -5, 0, 1); return err }, "-deg"},
		{"n=0", func() error { _, err := makeGraph("gnp", 0, 8, 0, 1); return err }, ""},
		{"updates", func() error { return dynamic(-1, 0) }, "-updates"},
		{"window", func() error { return dynamic(10, -3) }, "-window"},
		{"updates=0", func() error { return dynamic(0, 0) }, ""},
		{"window=4", func() error { return dynamic(10, 4) }, ""},
	}
	for _, c := range cases {
		err := c.run()
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), c.flag+" ")):
			t.Errorf("%s: got error %v, want one naming %s", c.name, err, c.flag)
		}
	}
}

// dynamic runs the -dynamic mode on a small churn stream.
func dynamic(updates, window int) error {
	g, err := makeGraph("gnp", 50, 4, 0, 1)
	if err != nil {
		return err
	}
	return runDynamic(g, "luby", "churn", "", updates, 1, window, 1, true)
}
