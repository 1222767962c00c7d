// Command docscheck is the documentation gate run by the CI docs job.
//
// It enforces three invariants:
//
//  1. Every Go package under internal/, plus the public energymis root
//     package, has a package doc comment (by convention in the package's
//     doc.go).
//  2. Every relative link in the repo's markdown files (README.md,
//     ROADMAP.md, CHANGES.md, PAPER.md, PAPERS.md, docs/*.md) resolves to
//     an existing file.
//  3. Every cmd/<x> or internal/<x> package directory that the current
//     docs (README.md, docs/*.md, .claude/skills/verify/SKILL.md) name
//     exists. CHANGES.md and ROADMAP.md are history and may name deleted
//     packages.
//
// Usage: go run ./scripts/docscheck [repo-root]   (default ".")
//
// Exit status: 0 when clean, 1 with one line per violation otherwise.
package main

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkPackageDocs(root)...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkPackagePaths(root)...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: OK")
}

// checkPackageDocs verifies a package doc comment exists for the root
// package and every package under internal/.
func checkPackageDocs(root string) []string {
	dirs := map[string]bool{root: true}
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs[path] = true
		}
		return nil
	})
	var problems []string
	for dir := range dirs {
		hasGo, hasDoc := false, false
		entries, err := os.ReadDir(dir)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			hasGo = true
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", filepath.Join(dir, name), err))
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
			}
		}
		if hasGo && !hasDoc {
			problems = append(problems, fmt.Sprintf("%s: package has no doc comment (add a doc.go)", dir))
		}
	}
	return problems
}

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies relative links in the repo's markdown files.
func checkMarkdownLinks(root string) []string {
	var files []string
	for _, name := range []string{"README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md", "PAPERS.md"} {
		p := filepath.Join(root, name)
		if _, err := os.Stat(p); err == nil {
			files = append(files, p)
		}
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append(files, docs...)

	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", file, m[1]))
			}
		}
	}
	return problems
}

var pkgPathRe = regexp.MustCompile(`\b(?:cmd|internal)/[A-Za-z0-9_]+`)

// checkPackagePaths verifies that the package directories the current
// docs name exist, so a deleted or renamed package cannot live on in them.
func checkPackagePaths(root string) []string {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append(files, filepath.Join(root, "README.md"), filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"))
	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		seen := map[string]bool{}
		for _, dir := range pkgPathRe.FindAllString(string(data), -1) {
			if seen[dir] {
				continue
			}
			seen[dir] = true
			if fi, err := os.Stat(filepath.Join(root, dir)); err != nil || !fi.IsDir() {
				problems = append(problems, fmt.Sprintf("%s: names %s, which does not exist", file, dir))
			}
		}
	}
	return problems
}
