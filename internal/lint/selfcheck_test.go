package lint

import "testing"

// TestSuiteCleanOnRepo is the meta-check behind `make lint`: the full
// analyzer suite — including the poolsafe/pinpair/arenaescape/atomicfield
// dataflow generation and the whole-module deadcode analysis — run over the
// repository itself, must report nothing. Any new finding either reveals a real invariant violation to fix
// or needs an explicit justification comment at the site. The escapebudget
// gate has no per-package Run and is exercised separately by
// TestEscapeBudgetCleanOnRepo.
func TestSuiteCleanOnRepo(t *testing.T) {
	suite := All()
	want := []string{
		"ctxpropagate", "guardedby", "goroutinelife", "apidoc", "retval",
		"poolsafe", "pinpair", "arenaescape", "atomicfield", "deadcode",
		"escapebudget",
	}
	if len(suite) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
	diags, err := Run("../..", []string{"./..."}, suite)
	if err != nil {
		t.Fatalf("running suite on repo: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("hetsynthlint must exit clean on the repository: %d finding(s)", len(diags))
	}
}

// TestSelect covers the -only flag's analyzer resolution.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := Select("retval, guardedby")
	if err != nil || len(two) != 2 || two[0] != RetVal || two[1] != GuardedBy {
		t.Fatalf("Select(\"retval, guardedby\") = %v, err %v", two, err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(\"nosuch\") should fail")
	}
}
