package sim

// FreeList recycles the pooled state of a model's event chains — a pfs
// write piece, a burst-buffer drain — so a warm op allocates nothing.
// Get returns a recycled struct, or a new zero one when the list is
// empty. Put keeps x as it is: the caller clears the references x must
// not hold while it waits, and whatever it leaves, such as a completion
// func bound to x once, is still there at the next Get.
//
// A FreeList belongs to one model object on one engine, so it needs no
// locking.
type FreeList[T any] []*T

// Get returns a struct from the list, or a new one.
func (l *FreeList[T]) Get() *T {
	n := len(*l)
	if n == 0 {
		return new(T)
	}
	x := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return x
}

// Put returns x to the list for a later Get.
func (l *FreeList[T]) Put(x *T) {
	*l = append(*l, x)
}
