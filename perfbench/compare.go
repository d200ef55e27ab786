package main

// compare.go diffs two result records. Records measured on different host
// shapes are not comparable; the comparison says so and fails instead of
// passing silently.

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"reflect"
	"slices"
)

func readRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// shapeDiff lists the host-shape fields on which a and b differ.
func shapeDiff(a, b shape) []string {
	var diffs []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		if fa, fb := va.Field(i).Interface(), vb.Field(i).Interface(); fa != fb {
			diffs = append(diffs, fmt.Sprintf("%s %v -> %v", va.Type().Field(i).Tag.Get("json"), fa, fb))
		}
	}
	return diffs
}

// compareRecords prints every metric of both records with its change. It
// exits 1 when the records differ in host shape, workload or mode, or when
// either run failed an operation.
func compareRecords(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readRecord(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cur, err := readRecord(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	status := 0
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		fmt.Fprintf(stdout, "NOT COMPARABLE: workload %s trace %v vs workload %s trace %v\n",
			old.Workload, old.Trace, cur.Workload, cur.Trace)
		status = 1
	}
	if diffs := shapeDiff(old.Shape, cur.Shape); len(diffs) > 0 {
		fmt.Fprintln(stdout, "NOT COMPARABLE: the records come from different host shapes:")
		for _, d := range diffs {
			fmt.Fprintln(stdout, "  ", d)
		}
		status = 1
	}
	for _, rec := range []record{old, cur} {
		if !rec.Result.Correct {
			fmt.Fprintf(stdout, "FAILED: seed %d run failed %d of %d operations\n", rec.Seed, rec.Result.Failed, rec.Result.Attempted)
			status = 1
		}
	}
	names := map[string]bool{}
	for n := range old.Result.Metrics {
		names[n] = true
	}
	for n := range cur.Result.Metrics {
		names[n] = true
	}
	sorted := slices.Sorted(maps.Keys(names))
	for _, n := range sorted {
		a, okA := old.Result.Metrics[n]
		b, okB := cur.Result.Metrics[n]
		switch {
		case !okA || !okB:
			fmt.Fprintf(stdout, "  %-34s only in one record\n", n)
		case a.Value == 0:
			fmt.Fprintf(stdout, "  %-34s %14.6g -> %-14.6g %9s %s\n", n, a.Value, b.Value, "", a.Unit)
		default:
			fmt.Fprintf(stdout, "  %-34s %14.6g -> %-14.6g %+8.1f%% %s\n", n, a.Value, b.Value, 100*(b.Value/a.Value-1), a.Unit)
		}
	}
	return status
}
