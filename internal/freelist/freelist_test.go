package freelist

import "testing"

func TestListReusesAndBounds(t *testing.T) {
	made := 0
	l := New(func() *int { made++; return new(int) })
	a := l.Get()
	if made != 1 {
		t.Fatalf("Get on an empty list made %d objects, want 1", made)
	}
	l.Put(a)
	if b := l.Get(); b != a || made != 1 {
		t.Fatalf("Get after Put returned %p (made %d), want the released %p", b, made, a)
	}
	for i := 0; i < capacity+5; i++ {
		l.Put(new(int)) // the 5 beyond capacity are dropped
	}
	for i := 0; i < capacity; i++ {
		l.Get()
	}
	if made != 1 {
		t.Fatalf("draining a full list made %d objects, want none beyond the first", made-1)
	}
	if l.Get(); made != 2 {
		t.Fatalf("Get on a drained list made %d objects in all, want 2", made)
	}
}
