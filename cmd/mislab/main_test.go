package main

import (
	"math"
	"strings"
	"testing"
)

// TestNegativeSizesRejected checks that every size flag rejects a
// negative or otherwise malformed value (NaN, infinity, a batch below 1)
// with an error naming the flag, where the generators and stream builders
// would otherwise panic or silently accept it.
func TestNegativeSizesRejected(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		flag string // "" = must succeed
	}{
		{"n", func() error { _, err := makeGraph("gnp", -5, 8, 0, 1); return err }, "-n"},
		{"deg", func() error { _, err := makeGraph("cliquechain", 10, -5, 0, 1); return err }, "-deg"},
		{"deg=NaN", func() error { _, err := makeGraph("gnp", 10, math.NaN(), 0, 1); return err }, "-deg"},
		{"deg=Inf", func() error { _, err := makeGraph("gnp", 10, math.Inf(1), 0, 1); return err }, "-deg"},
		{"radius", func() error { _, err := makeGraph("udg", 10, 8, -1, 1); return err }, "-radius"},
		{"radius=NaN", func() error { _, err := makeGraph("udg", 10, 8, math.NaN(), 1); return err }, "-radius"},
		{"radius=Inf", func() error { _, err := makeGraph("udg", 10, 8, math.Inf(1), 1); return err }, "-radius"},
		{"radius=0", func() error { _, err := makeGraph("udg", 10, 8, 0, 1); return err }, ""},
		{"n=0", func() error { _, err := makeGraph("gnp", 0, 8, 0, 1); return err }, ""},
		{"updates", func() error { return dynamic(-1, 1, 0) }, "-updates"},
		{"batch", func() error { return dynamic(10, -3, 0) }, "-batch"},
		{"batch=0", func() error { return dynamic(10, 0, 0) }, "-batch"},
		{"window", func() error { return dynamic(10, 1, -3) }, "-window"},
		{"updates=0", func() error { return dynamic(0, 1, 0) }, ""},
		{"batch=2", func() error { return dynamic(10, 2, 0) }, ""},
		{"window=4", func() error { return dynamic(10, 1, 4) }, ""},
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
func dynamic(updates, batch, window int) error {
	g, err := makeGraph("gnp", 50, 4, 0, 1)
	if err != nil {
		return err
	}
	return runDynamic(g, "luby", "churn", "", updates, batch, window, 1, true)
}
