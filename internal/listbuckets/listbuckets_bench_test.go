package listbuckets

import "testing"

// Component-level list-buckets benchmarks (Table 2's list-buckets row).

func BenchmarkPushPop(b *testing.B) {
	lb := Must(New(1024, 16, 2048))
	var e [16]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.PushBack(i&1023, e[:])
		lb.PopFront(i&1023, e[:])
	}
}

func BenchmarkInsertFront(b *testing.B) {
	lb := Must(New(64, 16, 2048))
	var e [16]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.InsertFront(i&63, e[:])
		if i&1023 == 1023 {
			b.StopTimer()
			for j := 0; j < 64; j++ {
				for lb.PopFront(j, nil) {
				}
			}
			b.StartTimer()
		}
	}
}

func BenchmarkFirstNonEmpty(b *testing.B) {
	lb := Must(New(4096, 8, 16))
	lb.PushBack(4000, make([]byte, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lb.FirstNonEmpty(0) != 4000 {
			b.Fatal("scan broken")
		}
	}
}
