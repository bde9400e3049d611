package genas

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestInternalPackagesAreUsed is the orphan guard: every package under
// internal/ is imported by non-test code elsewhere in the module and has a row
// in README § Layout. A package that a refactor leaves without callers, or one
// added without a line saying what it is for, fails here.
func TestInternalPackagesAreUsed(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(goTool, "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := layoutRows(string(readme))

	var internal []string
	imported := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if strings.HasPrefix(fields[0], "genas/internal/") {
			internal = append(internal, fields[0])
		}
		for _, imp := range fields[1:] {
			imported[imp] = true
		}
	}
	if len(internal) == 0 {
		t.Fatalf("go list found no internal packages:\n%s", out)
	}
	for _, pkg := range internal {
		if !imported[pkg] {
			t.Errorf("%s has no non-test importer in the module: use it or delete it", pkg)
		}
		if !rows[strings.TrimPrefix(pkg, "genas/")] {
			t.Errorf("%s has no row in README § Layout", pkg)
		}
	}
}

// layoutRows returns the packages named, in backquotes, in the first column
// of README § Layout's table.
func layoutRows(readme string) map[string]bool {
	_, section, _ := strings.Cut(readme, "\n## Layout\n")
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		quoted := strings.Split(cells[1], "`")
		for i := 1; i < len(quoted); i += 2 {
			rows[quoted[i]] = true
		}
	}
	return rows
}
