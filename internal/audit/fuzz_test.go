package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpen checks Open's torn-tail repair over arbitrary bytes: a
// prefix of a valid log, cut at a fuzzed offset, followed by fuzzed
// suffix bytes. A failed Open leaves the file byte-identical. A
// successful one drops exactly TruncatedBytes from the end, leaving a
// file that verifies to exactly the records it reported; one more
// Append verifies as one more record, and a reopen truncates nothing.
func FuzzOpen(f *testing.F) {
	base := sampleLog(f).Bytes()
	firstEnd := bytes.IndexByte(base, '\n') + 1
	f.Add(uint(len(base)), []byte(nil))
	f.Add(uint(len(base)-7), []byte(nil))
	f.Add(uint(firstEnd), []byte(`{"seq":1,"prev":"x"`))
	f.Add(uint(firstEnd), []byte("{}\n"+string(base[firstEnd:])))
	f.Add(uint(len(base)), []byte("\n \r\n\n"))
	f.Add(uint(0), []byte("garbage\n"))
	f.Add(uint(0), []byte(nil))
	f.Fuzz(func(t *testing.T, cut uint, suffix []byte) {
		in := append(append([]byte(nil), base[:cut%uint(len(base)+1)]...), suffix...)
		path := filepath.Join(t.TempDir(), "audit.jsonl")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		read := func() []byte {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		l, info, err := Open(path, Options{})
		if err != nil {
			if got := read(); !bytes.Equal(got, in) {
				t.Fatalf("failed Open (%v) changed the file from %d to %d bytes", err, len(in), len(got))
			}
			return
		}
		got := read()
		if int64(len(got)) != int64(len(in))-info.TruncatedBytes || !bytes.Equal(got, in[:len(got)]) {
			l.Close()
			t.Fatalf("Open kept %d of %d bytes, reported %d truncated", len(got), len(in), info.TruncatedBytes)
		}
		recs, err := VerifyRecords(bytes.NewReader(got))
		if err != nil || !reflect.DeepEqual(recs, info.Records) {
			l.Close()
			t.Fatalf("repaired file verifies to %d records (err %v), Open reported %d", len(recs), err, len(info.Records))
		}
		err = l.Append(Record{Op: OpMutate, Insert: [][]string{{"R", "a"}}, Epoch: 1, DBFingerprint: "fp"})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("Append after repair: %v", err)
		}
		if recs, err := VerifyRecords(bytes.NewReader(read())); err != nil || len(recs) != len(info.Records)+1 {
			t.Fatalf("after Append: %d records verify (err %v), want %d", len(recs), err, len(info.Records)+1)
		}
		l, again, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		l.Close()
		if again.TruncatedBytes != 0 || len(again.Records) != len(info.Records)+1 {
			t.Fatalf("reopen: %d records, %d truncated bytes; want %d, 0",
				len(again.Records), again.TruncatedBytes, len(info.Records)+1)
		}
	})
}
