package core

import (
	"encoding/binary"
	"fmt"

	"hear/internal/keys"
	"hear/internal/prf"
)

// NaiveIntSum is the non-canceling variant of the integer SUM scheme shown
// in Figure 1 and discussed in §5.1.4: each rank adds only its own noise,
//
//	c_i[j] = x_i[j] + F(k_s_i + k_c + j)
//
// so the aggregate carries Σ_i F(k_s_i + k_c + j) and decryption must
// evaluate one PRF stream per rank — Θ(P) instead of Θ(1). Encryption is
// one PRF stream instead of two. The decrypting party must know every
// starting key, which is why the production scheme prefers canceling; this
// variant exists for the paper's ablation (it is what the intuitive Figure
// 1 presentation does) and for measuring the Θ(P) decryption wall.
type NaiveIntSum struct {
	width       int
	allStarting []uint64 // k_s_i for every rank, needed for Θ(P) decryption
}

// NewNaiveIntSum builds the naive scheme. allStartingKeys must hold every
// rank's starting key in rank order.
func NewNaiveIntSum(widthBits int, allStartingKeys []uint64) (*NaiveIntSum, error) {
	if err := checkWidth("core: naive-int-sum", widthBits); err != nil {
		return nil, err
	}
	if len(allStartingKeys) == 0 {
		return nil, fmt.Errorf("core: naive-int-sum: no starting keys")
	}
	ks := make([]uint64, len(allStartingKeys))
	copy(ks, allStartingKeys)
	return &NaiveIntSum{width: widthBits / 8, allStarting: ks}, nil
}

func (s *NaiveIntSum) Name() string {
	if s.width == 4 {
		return "naive-int32-sum"
	}
	return "naive-int64-sum"
}

func (s *NaiveIntSum) PlainSize() int  { return s.width }
func (s *NaiveIntSum) CipherSize() int { return s.width }

func (s *NaiveIntSum) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *NaiveIntSum) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.width, s.width); err != nil {
		return err
	}
	nb := n * s.width
	ns := openNoise(st.Enc, st.SelfNonce(), uint64(off)*uint64(s.width), nb)
	defer ns.close()
	for done := 0; done < nb; done += prf.BlockBytes {
		b := ns.next()
		m := blockLen(nb, done)
		if s.width == 4 {
			for o := 0; o < m; o += 4 {
				binary.LittleEndian.PutUint32(cipher[done+o:],
					binary.LittleEndian.Uint32(plain[done+o:])+binary.LittleEndian.Uint32(b[o:]))
			}
		} else {
			for o := 0; o < m; o += 8 {
				binary.LittleEndian.PutUint64(cipher[done+o:],
					binary.LittleEndian.Uint64(plain[done+o:])+binary.LittleEndian.Uint64(b[o:]))
			}
		}
	}
	return nil
}

func (s *NaiveIntSum) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *NaiveIntSum) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.width, s.width); err != nil {
		return err
	}
	if len(s.allStarting) != st.Size {
		return fmt.Errorf("%s: scheme built for %d ranks, communicator has %d", s.Name(), len(s.allStarting), st.Size)
	}
	nb := n * s.width
	copy(plain[:nb], cipher[:nb])
	// Θ(P): subtract every rank's noise stream, each fused block-by-block
	// (one pooled stream, re-opened per rank).
	ns := openNoise(st.Enc, s.allStarting[0]+st.Collective(), uint64(off)*uint64(s.width), nb)
	defer ns.close()
	for i, k := range s.allStarting {
		if i > 0 {
			ns.open(st.Enc, k+st.Collective(), uint64(off)*uint64(s.width), nb)
		}
		for done := 0; done < nb; done += prf.BlockBytes {
			b := ns.next()
			m := blockLen(nb, done)
			if s.width == 4 {
				for o := 0; o < m; o += 4 {
					binary.LittleEndian.PutUint32(plain[done+o:],
						binary.LittleEndian.Uint32(plain[done+o:])-binary.LittleEndian.Uint32(b[o:]))
				}
			} else {
				for o := 0; o < m; o += 8 {
					binary.LittleEndian.PutUint64(plain[done+o:],
						binary.LittleEndian.Uint64(plain[done+o:])-binary.LittleEndian.Uint64(b[o:]))
				}
			}
		}
	}
	return nil
}

func (s *NaiveIntSum) Reduce(dst, src []byte, n int) {
	if s.width == 4 {
		for j := 0; j < n; j++ {
			o := j * 4
			binary.LittleEndian.PutUint32(dst[o:],
				binary.LittleEndian.Uint32(dst[o:])+binary.LittleEndian.Uint32(src[o:]))
		}
		return
	}
	for j := 0; j < n; j++ {
		o := j * 8
		binary.LittleEndian.PutUint64(dst[o:],
			binary.LittleEndian.Uint64(dst[o:])+binary.LittleEndian.Uint64(src[o:]))
	}
}
