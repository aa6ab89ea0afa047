package audit

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fixedClock returns a deterministic now hook stepping one second per
// call, so golden output is stable.
func fixedClock() func() time.Time {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(n) * time.Second)
		n++
		return t
	}
}

func sampleLog(t testing.TB) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	l := New(&buf)
	l.now = fixedClock()
	recs := []Record{
		{
			RequestID: "req-0001",
			Endpoint:  "certain",
			Decision:  DecisionCertain,
			A:         "a1", B: "a2",
			Rule: "r1",
			Justification: []string{
				"1. (p1,p2) by rule r2 using wrote(p1,b1), wrote(p2,b1)",
				"2. (a1,a2) by rule r1 using auth(a1,p1), auth(a2,p2) given (p1,p2)",
			},
		},
		{
			RequestID: "req-0002",
			Endpoint:  "possible",
			Decision:  DecisionPossible,
			A:         "b1", B: "b2",
		},
		{
			RequestID: "req-0002",
			Endpoint:  "possible",
			Decision:  DecisionPossible,
			A:         "c1", B: "c2",
			Rule:          "r3",
			Justification: []string{`3. (c1,c2) by rule r3 using title(c1,"x \"y\""), title(c2,"x \"y\"")`},
		},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	return &buf
}

func TestVerifyAcceptsRecordedRun(t *testing.T) {
	buf := sampleLog(t)
	n, err := Verify(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n != 3 {
		t.Fatalf("Verify counted %d records, want 3", n)
	}
	// Trailing blank lines are tolerated (tail -f friendliness).
	n, err = Verify(strings.NewReader(buf.String() + "\n\n"))
	if err != nil || n != 3 {
		t.Fatalf("Verify with trailing blanks: n=%d err=%v", n, err)
	}
}

// TestGoldenSchema pins the on-disk schema: field names, field order
// (canonical for hashing) and chaining fields. Breaking this test means
// breaking every deployed log reader — change it deliberately.
func TestGoldenSchema(t *testing.T) {
	buf := sampleLog(t)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	wantPrefix := `{"seq":0,"ts":"2026-01-02T03:04:05Z","request_id":"req-0001","endpoint":"certain","decision":"certain","a":"a1","b":"a2","rule":"r1","justification":["1. (p1,p2) by rule r2 using wrote(p1,b1), wrote(p2,b1)","2. (a1,a2) by rule r1 using auth(a1,p1), auth(a2,p2) given (p1,p2)"],"prev":"","hash":"`
	if !strings.HasPrefix(lines[0], wantPrefix) {
		t.Fatalf("record 0 schema drifted:\n got %s\nwant prefix %s", lines[0], wantPrefix)
	}
	// Optional fields are omitted when empty (record 1 has no rule or
	// justification).
	if strings.Contains(lines[1], `"rule"`) || strings.Contains(lines[1], `"justification"`) {
		t.Fatalf("record 1 should omit empty rule/justification: %s", lines[1])
	}
	// Each record's prev equals the previous record's hash.
	var r0, r1 Record
	if err := json.Unmarshal([]byte(lines[0]), &r0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Prev != r0.Hash || r0.Hash == "" {
		t.Fatalf("chain broken in golden output: r0.hash=%q r1.prev=%q", r0.Hash, r1.Prev)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	base := sampleLog(t).String()
	lines := strings.Split(strings.TrimSpace(base), "\n")

	tampered := map[string]string{
		"payload edit": strings.Join([]string{
			strings.Replace(lines[0], `"a":"a1"`, `"a":"a9"`, 1), lines[1], lines[2],
		}, "\n"),
		"record deleted":  strings.Join([]string{lines[0], lines[2]}, "\n"),
		"records swapped": strings.Join([]string{lines[1], lines[0], lines[2]}, "\n"),
		"record inserted": strings.Join([]string{lines[0], lines[1], lines[1], lines[2]}, "\n"),
		"hash rewritten": strings.Join([]string{
			lines[0], lines[1],
			strings.Replace(lines[2], `"hash":"`, `"hash":"00`, 1),
		}, "\n"),
		"not json": lines[0] + "\n{broken\n",
	}
	for name, log := range tampered {
		if _, err := Verify(strings.NewReader(log)); err == nil {
			t.Errorf("%s: Verify accepted tampered log", name)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				_ = l.Append(Record{Decision: DecisionPossible, A: "x", B: "y"})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	n, err := Verify(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 200 {
		t.Fatalf("concurrent append: n=%d err=%v", n, err)
	}
}
