package core

import (
	"fmt"

	"hear/internal/hfp"
	"hear/internal/keys"
	"hear/internal/prf"
)

// This file is what the float schemes share: each is an hfp.Kernel — built
// once per scheme, it owns the wire width, the cell width and every
// per-element operation — driven one prf.BlockSource block (four elements)
// at a time by the two loops below.

// floatElemsPerBlock is how many elements one keystream block serves.
const floatElemsPerBlock = prf.BlockBytes / hfp.NoiseBytes

// floatNoise is the keystream of one float encrypt: the stream every
// element is multiplied by and, at a canceling rank of the product scheme,
// the next rank's stream it is divided by (nil otherwise).
type floatNoise struct{ self, next *noiseStream }

// openFloatStream positions one noise stream for elements [off, off+n).
func openFloatStream(st *keys.RankState, nonce uint64, n, off int) *noiseStream {
	return openNoise(st.Enc, nonce, uint64(off)*hfp.NoiseBytes, n*hfp.NoiseBytes)
}

func (fn floatNoise) close() {
	fn.self.close()
	if fn.next != nil {
		fn.next.close()
	}
}

// seal encrypts the next n elements of the streams. Unless it ends the
// span the streams were opened for, n must be a multiple of
// floatElemsPerBlock. base is the index of plain[0] in the caller's
// buffer, for the error.
func (fn floatNoise) seal(k *hfp.Kernel, name string, plain, cipher []byte, n, base int) error {
	ps, cs := k.PlainSize(), k.CellSize()
	for j := 0; j < n; j += floatElemsPerBlock {
		m := min(floatElemsPerBlock, n-j)
		var bad int
		var err error
		if fn.next == nil {
			bad, err = k.Seal(cipher[j*cs:], plain[j*ps:], fn.self.next()[:], m)
		} else {
			bad, err = k.SealCancel(cipher[j*cs:], plain[j*ps:], fn.self.next()[:], fn.next.next()[:], m)
		}
		if err != nil {
			return fmt.Errorf("%s: element %d: %w", name, base+j+bad, err)
		}
	}
	return nil
}

// openFloat decrypts the next n elements of ns, with seal's condition on n.
func openFloat(k *hfp.Kernel, ns *noiseStream, cipher, plain []byte, n int) {
	ps, cs := k.PlainSize(), k.CellSize()
	for j := 0; j < n; j += floatElemsPerBlock {
		k.Open(plain[j*ps:], cipher[j*cs:], ns.next()[:], min(floatElemsPerBlock, n-j))
	}
}
