package experiments

import (
	"strings"
	"testing"
)

func quickOpts(buf *strings.Builder) Options {
	return Options{Out: buf, MaxWorkers: 4, Runs: 1, Quick: true}
}

func TestRegistryCoversEveryPaperExperiment(t *testing.T) {
	want := []string{"fig1", "tab1", "fig8", "fig9", "fig10a", "fig10b", "fig11", "tab2", "fig12", "fig13", "fig14", "locality"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order = %v, want %v", got, want)
		}
	}
	for _, id := range want {
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	if Describe("nope") != "" {
		t.Error("unknown id has a description")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// Each experiment must run end to end in quick mode and print a table
// containing its key row labels.
func TestFig1Quick(t *testing.T) {
	var buf strings.Builder
	if err := Fig1(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DB4ML", "Galois", "MADlib", "Figure 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Quick(t *testing.T) {
	var buf strings.Builder
	if err := Table1(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gplus", "patents", "pld", "3774768"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	var buf strings.Builder
	if err := Fig8(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gplus") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestFig9Quick(t *testing.T) {
	var buf strings.Builder
	if err := Fig9(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sync", "async", "bounded(S=2)", "bounded(S=10)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// With Options.Telemetry set, experiments that wire an observer append its
// JSON snapshot after the table.
func TestFig9TelemetryDump(t *testing.T) {
	var buf strings.Builder
	opts := quickOpts(&buf)
	opts.Telemetry = true
	if err := Fig9(opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"-- telemetry: fig9 sync straggler=false --",
		"-- telemetry: fig9 async straggler=true --",
		`"executions"`,
		`"per_worker"`,
		`"convergence"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig10aQuick(t *testing.T) {
	var buf strings.Builder
	if err := Fig10a(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "transaction machinery") || !strings.Contains(out, "%") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestFig10bQuick(t *testing.T) {
	var buf strings.Builder
	if err := Fig10b(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"256", "1024"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	var buf strings.Builder
	if err := Fig11(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "versions") || !strings.Contains(out, "L1 misses") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTable2Quick(t *testing.T) {
	var buf strings.Builder
	if err := Table2(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rcv1", "susy", "epsilon", "news20", "covtype", "1355191"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig12Quick(t *testing.T) {
	var buf strings.Builder
	if err := Fig12(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Hogwild!", "DB4ML", "covtype"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig13Quick(t *testing.T) {
	var buf strings.Builder
	if err := Fig13(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workers") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestFig14Quick(t *testing.T) {
	var buf strings.Builder
	if err := Fig14(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"covtype", "rcv1", "ns/sample"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllQuickViaRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf strings.Builder
	if err := Run("all", quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 14") {
		t.Fatal("all-run did not reach the last experiment")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxWorkers < 8 || o.Runs != 3 || o.Out == nil {
		t.Fatalf("defaults: %+v", o)
	}
	sweep := Options{MaxWorkers: 8}.withDefaults().workerSweep()
	want := []int{1, 2, 4, 8}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v", sweep)
		}
	}
}

func TestLocalityQuick(t *testing.T) {
	var buf strings.Builder
	if err := Locality(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ring", "range", "round-robin", "hash", "remote fraction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
