package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunSubcommands(t *testing.T) {
	cases := map[string][]string{
		"triangles":  {"triangles", "-n", "20", "-p", "0.3", "-nodes", "2", "-trials", "1"},
		"cliques":    {"cliques", "-n", "7", "-k", "6", "-p", "0.8", "-nodes", "2"},
		"chromatic":  {"chromatic", "-n", "7", "-p", "0.4", "-nodes", "2"},
		"tutte":      {"tutte", "-n", "5", "-edges", "6"},
		"cnfsat":     {"cnfsat", "-vars", "8", "-clauses", "10"},
		"permanent":  {"permanent", "-n", "6"},
		"hamilton":   {"hamilton", "-n", "7", "-p", "0.6"},
		"setcover":   {"setcover", "-n", "8", "-sets", "10", "-t", "3"},
		"ov":         {"ov", "-n", "32", "-t", "8"},
		"conv3sum":   {"conv3sum", "-n", "16", "-bits", "6"},
		"csp":        {"csp", "-n", "6", "-sigma", "2", "-m", "4"},
		"with-liar":  {"triangles", "-n", "16", "-p", "0.3", "-nodes", "4", "-faults", "40", "-lie", "1"},
		"with-crash": {"triangles", "-n", "16", "-p", "0.3", "-nodes", "4", "-faults", "40", "-silence", "2"},
		"coordinate-local": {"coordinate", "-spec", "triangles n=16 p=0.3 seed=2", "-local",
			"-nodes", "2", "-trials", "1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"no args":        nil,
		"unknown":        {"frobnicate"},
		"bad lie list":   {"triangles", "-lie", "x,y"},
		"bad clique k":   {"cliques", "-k", "5"},
		"beyond radius":  {"triangles", "-n", "16", "-p", "0.3", "-nodes", "2", "-faults", "0", "-lie", "0"},
		"all byzantine":  {"triangles", "-n", "12", "-nodes", "1", "-lie", "0"},
		"oversized csp":  {"csp", "-n", "5"},
		"tiny permanent": {"permanent", "-n", "1"},

		// Cross-flag rules (commonFlags.validate): each contradictory
		// combination dies up front with one line.
		"repair sans erasures": {"triangles", "-repair", "1"},
		"grace sans erasures":  {"triangles", "-grace", "1s"},
		"drop sans erasures":   {"triangles", "-dropnodes", "1"},
		"rate beyond 1":        {"triangles", "-droprate", "1.5", "-erasures", "1"},
		"negative rate":        {"triangles", "-droprate", "-0.1", "-erasures", "1"},
		"zero nodes":           {"triangles", "-nodes", "0"},

		// coordinate/node flag contracts.
		"coordinate sans spec":     {"coordinate", "-local"},
		"coordinate no mode":       {"coordinate", "-spec", "triangles"},
		"coordinate both modes":    {"coordinate", "-spec", "triangles", "-local", "-listen", "127.0.0.1:0"},
		"coordinate bad spec":      {"coordinate", "-spec", "frobnicate n=3", "-local"},
		"coordinate lossy remote":  {"coordinate", "-spec", "triangles", "-listen", "127.0.0.1:0", "-dropnodes", "1", "-erasures", "1"},
		"coordinate shards remote": {"coordinate", "-spec", "triangles", "-listen", "127.0.0.1:0", "-shards", "2"},
		"malformed listen":         {"coordinate", "-spec", "triangles", "-listen", "127.0.0.1"},
		"node sans join":           {"node"},
		"node bad join":            {"node", "-join", "not-an-address"},
		"node negative owner":      {"node", "-join", "127.0.0.1:9", "-fail-owner", "-1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

func TestRunJobsManifest(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "jobs.txt")
	if err := os.WriteFile(manifest, []byte(`
# mixed workload
triangles n=20 p=0.3 seed=7
permanent n=6 seed=2
cnfsat    vars=8 clauses=10 seed=3
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"jobs", "-manifest", manifest, "-nodes", "2", "-trials", "1", "-poll", "0"}); err != nil {
		t.Fatalf("jobs run: %v", err)
	}
}

func TestRunJobsManifestErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string][]string{
		"no manifest":   {"jobs"},
		"missing file":  {"jobs", "-manifest", filepath.Join(dir, "absent.txt")},
		"empty":         {"jobs", "-manifest", write("empty.txt", "# nothing\n")},
		"unknown kind":  {"jobs", "-manifest", write("kind.txt", "frobnicate n=3\n")},
		"bad field":     {"jobs", "-manifest", write("field.txt", "triangles n=x\n")},
		"not key=value": {"jobs", "-manifest", write("kv.txt", "triangles n\n")},
		"bad clique k":  {"jobs", "-manifest", write("k.txt", "cliques n=7 k=5\n")},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}
