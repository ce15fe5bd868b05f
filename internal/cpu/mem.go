// Package cpu simulates the PLASMA-like MIPS-I network processor core used
// on the paper's prototype. The simulator is an ISA-level interpreter with a
// cycle counter, a per-retired-instruction report port (Port, fed each
// word's hash from the core's word cache) and a trace tap; the hardware
// monitor (internal/monitor) attaches to the port exactly as the RTL
// monitor attaches to the core's instruction report port.
//
// Memory is unified and byte-addressable (big-endian, as on MIPS): packet
// payload lives in the same address space as code, which is precisely the
// property the data-plane attacks of Chasaki & Wolf exploit and the monitor
// must catch.
package cpu

import "fmt"

// Memory is a flat byte-addressable RAM starting at address 0 with an
// optional MMIO window at the top of the address range.
type Memory struct {
	data []byte
	mmio []mmioRegion
}

type mmioRegion struct {
	base, size uint32
	h          MMIOHandler
}

// MMIOHandler services loads and stores in a memory-mapped I/O window.
// size is 1, 2 or 4; addresses are absolute.
type MMIOHandler interface {
	Load(addr uint32, size int) uint32
	Store(addr uint32, size int, v uint32)
}

// NewMemory allocates a RAM of the given size in bytes (rounded up to a
// multiple of 4).
func NewMemory(size int) *Memory {
	size = (size + 3) &^ 3
	return &Memory{data: make([]byte, size)}
}

// Size returns the RAM size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// MapMMIO registers handler h for the [base, base+size) window. MMIO windows
// take priority over RAM.
func (m *Memory) MapMMIO(base, size uint32, h MMIOHandler) {
	m.mmio = append(m.mmio, mmioRegion{base: base, size: size, h: h})
}

func (m *Memory) mmioAt(addr uint32) (MMIOHandler, bool) {
	for _, r := range m.mmio {
		if addr >= r.base && addr < r.base+r.size {
			return r.h, true
		}
	}
	return nil, false
}

// Reset zeroes the RAM (MMIO mappings are kept).
func (m *Memory) Reset() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// WriteBytes copies data into RAM at addr; out-of-range writes are truncated.
// It satisfies asm.Loader.
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	if int(addr) >= len(m.data) {
		return
	}
	copy(m.data[addr:], data)
}

// ReadBytes copies n bytes from RAM at addr.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	return m.AppendBytes(nil, addr, n)
}

// AppendBytes appends n bytes of RAM starting at addr to dst and returns
// the extended slice; bytes past the end of RAM read as zero. It reuses
// dst's capacity, so callers that recycle a buffer read memory without
// allocating — the packet data-plane path depends on this.
func (m *Memory) AppendBytes(dst []byte, addr uint32, n int) []byte {
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	start := len(dst)
	dst = dst[:start+n]
	out := dst[start:]
	copied := 0
	if int(addr) < len(m.data) {
		copied = copy(out, m.data[addr:])
	}
	for i := copied; i < n; i++ {
		out[i] = 0
	}
	return dst
}

// inRange reports whether an n-byte access at addr fits in RAM.
func (m *Memory) inRange(addr uint32, n int) bool {
	return int(addr)+n <= len(m.data) && int(addr) >= 0
}

// Load32 reads a big-endian word. ok=false on a bus error. With no MMIO
// window mapped it reads RAM directly, skipping the window scan; this is
// the instruction fetch and every lw.
func (m *Memory) Load32(addr uint32) (uint32, bool) {
	if len(m.mmio) != 0 {
		if h, hit := m.mmioAt(addr); hit {
			return h.Load(addr, 4), true
		}
	}
	if !m.inRange(addr, 4) {
		return 0, false
	}
	b := m.data[addr:]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), true
}

// Load16 reads a big-endian halfword.
func (m *Memory) Load16(addr uint32) (uint32, bool) {
	if h, hit := m.mmioAt(addr); hit {
		return h.Load(addr, 2), true
	}
	if !m.inRange(addr, 2) {
		return 0, false
	}
	b := m.data[addr:]
	return uint32(b[0])<<8 | uint32(b[1]), true
}

// Load8 reads a byte.
func (m *Memory) Load8(addr uint32) (uint32, bool) {
	if h, hit := m.mmioAt(addr); hit {
		return h.Load(addr, 1), true
	}
	if !m.inRange(addr, 1) {
		return 0, false
	}
	return uint32(m.data[addr]), true
}

// Store32 writes a big-endian word.
func (m *Memory) Store32(addr uint32, v uint32) bool {
	if h, hit := m.mmioAt(addr); hit {
		h.Store(addr, 4, v)
		return true
	}
	if !m.inRange(addr, 4) {
		return false
	}
	b := m.data[addr:]
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return true
}

// Store16 writes a big-endian halfword.
func (m *Memory) Store16(addr uint32, v uint32) bool {
	if h, hit := m.mmioAt(addr); hit {
		h.Store(addr, 2, v)
		return true
	}
	if !m.inRange(addr, 2) {
		return false
	}
	b := m.data[addr:]
	b[0], b[1] = byte(v>>8), byte(v)
	return true
}

// Store8 writes a byte.
func (m *Memory) Store8(addr uint32, v uint32) bool {
	if h, hit := m.mmioAt(addr); hit {
		h.Store(addr, 1, v)
		return true
	}
	if !m.inRange(addr, 1) {
		return false
	}
	m.data[addr] = byte(v)
	return true
}

// String summarizes the memory configuration.
func (m *Memory) String() string {
	return fmt.Sprintf("cpu.Memory{%d KiB, %d mmio}", len(m.data)/1024, len(m.mmio))
}
