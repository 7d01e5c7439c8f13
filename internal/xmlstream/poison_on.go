//go:build spexpoison

package xmlstream

// poison makes a retained view fail loudly instead of silently: under the
// spexpoison build tag the scanner overwrites every byte and slot it is about
// to reuse — rewound arena storage, the consumed part of its own window — and
// Tape.Reset does the same to its storage, so an event kept past its lifetime
// reads as 0xDB garbage and the comparing tests fail.
const poison = true
