package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const paperDoc = `<a><a><c/></a><b/><c/></a>`

func runCLI(t *testing.T, args []string, stdin string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestCLISerialize(t *testing.T) {
	out, _, err := runCLI(t, []string{"-q", "_*.a[b].c"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if out != "<c></c>\n" {
		t.Fatalf("got %q", out)
	}
}

func TestCLICount(t *testing.T) {
	out, _, err := runCLI(t, []string{"-q", "_*.c", "-count"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "2" {
		t.Fatalf("got %q", out)
	}
}

func TestCLINodes(t *testing.T) {
	out, _, err := runCLI(t, []string{"-q", "_*.c", "-nodes"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if out != "3\tc\n5\tc\n" {
		t.Fatalf("got %q", out)
	}
}

func TestCLIXPath(t *testing.T) {
	out, _, err := runCLI(t, []string{"-xpath", "-q", "//a[b]/c", "-count"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "1" {
		t.Fatalf("got %q", out)
	}
}

func TestCLIConjunctive(t *testing.T) {
	out, _, err := runCLI(t, []string{"-cq", "q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3", "-nodes"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if out != "5\tc\n" {
		t.Fatalf("got %q", out)
	}
}

func TestCLIStats(t *testing.T) {
	_, errOut, err := runCLI(t, []string{"-q", "a", "-count", "-stats"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "elements=5") || !strings.Contains(errOut, "matches=1") {
		t.Fatalf("stats output: %q", errOut)
	}
	// The per-transducer table lists every node of the a-query's network.
	for _, want := range []string{"transducer", "0:CH(a)", "1:OU"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("stats output missing %q:\n%s", want, errOut)
		}
	}
}

// TestCLIStatsLowered: the -stats table lists the lowered network — for
// _*.a[b].c the six transducers that keep state, none of Fig. 11's connectors —
// with the wiring on the writer's row: VC writes the condition and the
// continuation (out deg 2, each emission two deliveries), and the
// determination <b> witnesses is counted where it was emitted, at CH(b).
func TestCLIStatsLowered(t *testing.T) {
	_, errOut, err := runCLI(t, []string{"-q", "_*.a[b].c", "-count", "-stats"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "transducers=6 ") {
		t.Fatalf("stats output: %q", errOut)
	}
	i := strings.Index(errOut, "transducer ")
	if i < 0 {
		t.Fatalf("no transducer table:\n%s", errOut)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(errOut[i:]), "\n")[1:] {
		f := strings.Fields(line)
		// name, out deg, out act, out det
		rows = append(rows, strings.Join([]string{f[0], f[4], f[5], f[6]}, " "))
	}
	want := []string{"0:CL(_) 1 5 0", "1:CH(a) 1 2 0", "2:VC(q) 2 4 2", "3:CH(b) 1 0 1", "4:CH(c) 1 2 0", "5:OU 0 0 0"}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("table rows (name, out deg, out act, out det):\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}

// TestCLITraceFigure13 golden-tests the -trace rendering of the §III.10
// walk-through (Fig. 13) for _*.a[b].c over the Fig. 1 document, filtered to
// the qualifier machinery: the variable-creator instantiates v0 (outer <a>,
// step 2) and v1 (inner <a>, step 3); the inner instance is invalidated when
// its scope closes (step 6); <b> witnesses v0 through the
// variable-determinant (step 7); the outer scope closes at step 11. Each
// determination is traced once, where it originates (the parent engine's
// golden also listed the copies VD forwarded at steps 6 and 11: they are gone,
// determinations go to the condition store, not through the transducers). VD
// is not a node of the lowered network — it runs where CH(b) emits — but its
// determinations keep its name, so the figure reads as the paper's.
func TestCLITraceFigure13(t *testing.T) {
	_, errOut, err := runCLI(t, []string{"-q", "_*.a[b].c", "-count", "-trace", "-trace-node", "VC,VD"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := `   2  <a>     VC(q)     [v0]
   3  <a>     VC(q)     [v1]
   6  </a>    VC(q)     {v1,close}
   7  <b>     VD        {v0,true}
  11  </a>    VC(q)     {v0,close}
`
	if errOut != want {
		t.Fatalf("trace output:\n%s\nwant:\n%s", errOut, want)
	}
}

// TestCLITraceFigure4 checks the child-transducer trace of Example III.1:
// for a.c, CH(a) fires only at step 2 and CH(c) only at step 9.
func TestCLITraceFigure4(t *testing.T) {
	_, errOut, err := runCLI(t, []string{"-q", "a.c", "-count", "-trace", "-trace-node", "CH"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := `   2  <a>     CH(a)     [true]
   9  <c>     CH(c)     [true]
`
	if errOut != want {
		t.Fatalf("trace output:\n%s\nwant:\n%s", errOut, want)
	}
}

func TestCLITraceBadKind(t *testing.T) {
	if _, _, err := runCLI(t, []string{"-q", "a", "-trace", "-trace-kind", "bogus"}, paperDoc); err == nil {
		t.Error("bad -trace-kind should fail")
	}
}

func TestCLIFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte(paperDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, []string{"-q", "a.b", "-nodes", path}, "")
	if err != nil {
		t.Fatal(err)
	}
	if out != "4\tb\n" {
		t.Fatalf("got %q", out)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},                          // no query
		{"-q", "a..b"},              // bad rpeq
		{"-xpath", "-q", "//["},     // bad xpath
		{"-cq", "nonsense"},         // bad cq
		{"-q", "a", "x.xml", "y"},   // too many args
		{"-q", "a", "/nonexistent"}, // missing file
	}
	for _, args := range cases {
		if _, _, err := runCLI(t, args, paperDoc); err == nil {
			t.Errorf("args %v unexpectedly succeeded", args)
		}
	}
}

func TestCLIMalformedInput(t *testing.T) {
	if _, _, err := runCLI(t, []string{"-q", "a"}, "<a><b></a></b>"); err == nil {
		t.Error("malformed input should fail")
	}
}

func TestCLIWindowed(t *testing.T) {
	doc := `<feed><msg><sport/></msg><msg><news/></msg><msg><sport/></msg></feed>`
	out, errOut, err := runCLI(t, []string{"-q", "feed.msg[sport]", "-window", "1", "-count", "-stats"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "2" {
		t.Fatalf("count: %q", out)
	}
	if !strings.Contains(errOut, "windows=3") {
		t.Fatalf("stats: %q", errOut)
	}
	out, _, err = runCLI(t, []string{"-q", "feed.msg[sport]", "-window", "2"}, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "window 0\t") || !strings.Contains(out, "window 1\t") {
		t.Fatalf("windowed output: %q", out)
	}
}

// TestEngineFlag: every -engine selection, legacy names included, must
// reproduce the plain evaluator's golden -nodes and -count output, and the
// flag refuses combinations the set engine cannot honour.
func TestEngineFlag(t *testing.T) {
	wantNodes, _, err := runCLI(t, []string{"-q", "_*.c", "-nodes"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, _, err := runCLI(t, []string{"-q", "_*.c", "-count"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"sequential", "shared", "merged", "parallel", "parallel:2"} {
		out, _, err := runCLI(t, []string{"-q", "_*.c", "-nodes", "-engine", engine}, paperDoc)
		if err != nil {
			t.Fatalf("-engine %s: %v", engine, err)
		}
		if out != wantNodes {
			t.Errorf("-engine %s -nodes = %q, want %q", engine, out, wantNodes)
		}
		out, _, err = runCLI(t, []string{"-q", "_*.c", "-count", "-engine", engine}, paperDoc)
		if err != nil {
			t.Fatalf("-engine %s -count: %v", engine, err)
		}
		if out != wantCount {
			t.Errorf("-engine %s -count = %q, want %q", engine, out, wantCount)
		}
	}
	// The XPath fragment goes through the same path.
	out, _, err := runCLI(t, []string{"-xpath", "-q", "//a[b]/c", "-count", "-engine", "shared"}, paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1\n" {
		t.Errorf("-xpath -engine shared count = %q, want \"1\\n\"", out)
	}

	for _, bad := range [][]string{
		{"-q", "a", "-engine", "shared"},         // neither -count nor -nodes
		{"-q", "a", "-count", "-engine", "warp"}, // unknown engine
		{"-q", "a", "-count", "-engine", "shared", "-stats"},
		{"-q", "a", "-count", "-engine", "shared", "-window", "2"},
	} {
		if _, _, err := runCLI(t, bad, paperDoc); err == nil {
			t.Errorf("args %v accepted, want error", bad)
		}
	}
}
