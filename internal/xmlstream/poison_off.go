//go:build !spexpoison

package xmlstream

// poison is off in normal builds; see poison_on.go.
const poison = false
