package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
	"net"
	"time"
)

// ceilings measures what this box allows, in the same run as the layers
// they are the denominators for: the standard library's AES-CTR rate for
// the PRF and the scheme kernels, memmove bandwidth for the folds, and a
// bare vectored write over loopback and its round trip for the wire.
func ceilings(m map[string]float64) error {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		return err
	}
	buf := make([]byte, 16<<20)
	m["ceil.aes_ctr_gbps"] = gbps(len(buf), medianTime(5, func() {
		cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(buf, buf)
	}))

	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	m["ceil.memmove_gbps"] = gbps(len(src), medianTime(5, func() { copy(dst, src) }))

	return loopback(m)
}

// loopback measures a TCP connection to this host with nothing on top but
// an echo: the round trip of one byte, and the rate at which net.Buffers
// writes of a 13-byte header plus a 64 KiB chunk (the shape of a SUBMIT
// frame) come back, as a round's lanes go up and come back reduced.
func loopback(m map[string]float64) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(conn, conn)
		echoed <- err
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	one := make([]byte, 1)
	rtts := make([]float64, 2000)
	for i := range rtts {
		t := time.Now()
		if _, err := conn.Write(one); err != nil {
			return err
		}
		if _, err := io.ReadFull(conn, one); err != nil {
			return err
		}
		rtts[i] = float64(time.Since(t)) / 1e3
	}
	m["ceil.loopback_rtt_us"] = median(rtts)

	const frames = 1024
	header, chunk := make([]byte, 13), make([]byte, 64<<10)
	total := frames * (len(header) + len(chunk))
	t := time.Now()
	wrote := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			vecs := net.Buffers{header, chunk}
			if _, err := vecs.WriteTo(conn); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- conn.(*net.TCPConn).CloseWrite()
	}()
	_, err = io.CopyN(io.Discard, conn, int64(total))
	m["ceil.loopback_writev_gbps"] = gbps(total, time.Since(t))
	if werr := <-wrote; err == nil {
		err = werr
	}
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	if err != nil {
		return fmt.Errorf("loopback echo: %w", err)
	}
	return nil
}
