package cpu

import (
	"fmt"

	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

// ExceptionKind enumerates the architectural exceptions the core raises.
type ExceptionKind int

const (
	ExcNone ExceptionKind = iota
	// ExcReservedInstr: the fetched word does not decode to an implemented
	// instruction.
	ExcReservedInstr
	// ExcUnaligned: a load/store address violated its natural alignment.
	ExcUnaligned
	// ExcBusError: an access fell outside RAM and any MMIO window.
	ExcBusError
	// ExcOverflow: signed overflow on add/sub/addi.
	ExcOverflow
	// ExcMonitorAlarm: the attached hardware monitor rejected the retired
	// instruction stream and asserted the core's reset line.
	ExcMonitorAlarm
	// ExcCycleLimit: the Run cycle budget was exhausted (runaway/looping
	// code — the watchdog case).
	ExcCycleLimit
	// ExcSyscall: a syscall was executed with no handler installed.
	ExcSyscall
)

func (k ExceptionKind) String() string {
	switch k {
	case ExcNone:
		return "none"
	case ExcReservedInstr:
		return "reserved-instruction"
	case ExcUnaligned:
		return "unaligned-access"
	case ExcBusError:
		return "bus-error"
	case ExcOverflow:
		return "arithmetic-overflow"
	case ExcMonitorAlarm:
		return "monitor-alarm"
	case ExcCycleLimit:
		return "cycle-limit"
	case ExcSyscall:
		return "syscall-unhandled"
	}
	return fmt.Sprintf("exception(%d)", int(k))
}

// Exception describes an abnormal termination of execution.
type Exception struct {
	Kind ExceptionKind
	PC   uint32 // pc of the faulting instruction
	Addr uint32 // faulting data address, if applicable
}

func (e *Exception) Error() string {
	return fmt.Sprintf("cpu: %s at pc=0x%x addr=0x%x", e.Kind, e.PC, e.Addr)
}

// TraceFunc observes every retired instruction. Returning false asserts the
// monitor's reset line: the core stops with ExcMonitorAlarm. This is the
// attachment point for the hardware monitor.
type TraceFunc func(pc uint32, w isa.Word) bool

// Port is the hardware monitor's side of the core's instruction report
// port: Step consumes one retired instruction as its pc and its hash under
// the core's installed parameter, and returning false asserts the reset
// line, as a TraceFunc does. *monitor.PackedMonitor implements it.
type Port interface {
	Step(pc uint32, h uint8) bool
}

// SyscallFunc services a syscall instruction. Register state may be
// inspected and modified through the CPU. Returning false halts the core.
type SyscallFunc func(c *CPU) bool

// CPU is one PLASMA-like core.
type CPU struct {
	Regs   [32]uint32
	PC     uint32
	Hi, Lo uint32
	Mem    *Memory

	// Cycles counts consumed clock cycles using the cost table below.
	Cycles uint64
	// Retired counts retired instructions.
	Retired uint64

	// Trace, if non-nil, observes every retired instruction while no Port
	// is attached (the reference monitor, tools and attack searches).
	Trace TraceFunc
	// Syscall, if non-nil, services syscall instructions.
	Syscall SyscallFunc

	halted bool

	// The attached monitor port (see Attach), the hash unit feeding it,
	// the optional forensic ring, and the word cache.
	port  Port
	hash  mhash.Hasher
	ring  *Tracer
	words *[1 << wordCacheBits]uint64
}

// The word cache is direct-mapped and keyed by the instruction word itself,
// never by the pc: the hash and the decode are pure functions of the word,
// so an entry cannot go stale, not even when packet-derived code puts new
// words at addresses that held others. A PC-keyed cache would replay the
// old word's hash and accept the substitution. An entry packs the word
// (bits 0-31), its hash (bits 32-39), isa.Valid (bit wordValid) and a
// filled flag (bit 63), so a lookup is one load and one compare; 4096
// entries are 32 KiB per core, an order of magnitude more lines than the
// largest built-in application has distinct words.
const (
	wordCacheBits   = 12
	wordFilled      = 1 << 63
	wordValid       = 1 << 40
	wordKey         = wordFilled | 0xFFFFFFFF
	fibonacciSpread = 2654435761
)

// Attach connects the monitor port p, fed with each retired word's hash
// under h, and clears the word cache. ring, if non-nil, records every
// retired instruction and whether p rejected it (the forensic view). While
// a port is attached, Trace is not consulted; Attach(nil, nil, nil)
// detaches it.
func (c *CPU) Attach(p Port, h mhash.Hasher, ring *Tracer) {
	c.port, c.hash, c.ring = p, h, ring
	switch {
	case p == nil:
		c.words = nil
	case c.words == nil:
		c.words = new([1 << wordCacheBits]uint64)
	default:
		clear(c.words[:])
	}
}

// lookup returns the word cache entry of raw, filling its line on a miss.
// Fibonacci scrambling spreads the structured bit patterns of machine code
// (opcode and function fields cluster at both ends) across the lines.
func (c *CPU) lookup(raw uint32) uint64 {
	i := (raw * fibonacciSpread) >> (32 - wordCacheBits)
	if e := c.words[i]; e&wordKey == wordFilled|uint64(raw) {
		return e
	}
	e := wordFilled | uint64(c.hash.Hash(raw))<<32 | uint64(raw)
	if isa.Valid(isa.Word(raw)) {
		e |= wordValid
	}
	c.words[i] = e
	return e
}

// Cycle costs approximating the multi-cycle PLASMA units. Every instruction
// costs one cycle; these add extra cycles.
const (
	extraCyclesMult = 3  // 4-cycle multiplier
	extraCyclesDiv  = 35 // 36-cycle iterative divider
	extraCyclesLoad = 1  // synchronous block-RAM read port
)

// New creates a core attached to mem, with PC at entry.
func New(mem *Memory, entry uint32) *CPU {
	c := &CPU{Mem: mem, PC: entry}
	return c
}

// Reset performs the hardware reset the monitor triggers on an alarm: all
// registers cleared, PC forced to entry. Memory contents are untouched (the
// binary stays loaded; recovery reloads only the processing stack state).
func (c *CPU) Reset(entry uint32) {
	c.Regs = [32]uint32{}
	c.Hi, c.Lo = 0, 0
	c.PC = entry
	c.halted = false
}

// Halted reports whether the core executed a break (normal completion).
func (c *CPU) Halted() bool { return c.halted }

// Run executes instructions until break, an exception, or the cycle budget
// is exhausted. It returns the number of cycles consumed by this call.
func (c *CPU) Run(maxCycles uint64) (uint64, *Exception) {
	start := c.Cycles
	for !c.halted {
		if c.Cycles-start >= maxCycles {
			return c.Cycles - start, &Exception{Kind: ExcCycleLimit, PC: c.PC}
		}
		if exc := c.Step(); exc != nil {
			return c.Cycles - start, exc
		}
	}
	return c.Cycles - start, nil
}

// Step executes one instruction. A nil return means the instruction retired
// normally (or the core halted via break).
//
// The monitor observes every fetched word, an invalid one included: it
// still "retires" from the fetch stage in hardware, so the monitor sees it
// before the trap. An alarm resets the core before the instruction's
// effects, which is where the attack is caught either way.
func (c *CPU) Step() *Exception {
	pc := c.PC
	raw, ok := c.Mem.Load32(pc)
	if !ok {
		return &Exception{Kind: ExcBusError, PC: pc, Addr: pc}
	}
	w := isa.Word(raw)
	if c.port != nil {
		e := c.lookup(raw)
		ok := c.port.Step(pc, uint8(e>>32))
		if c.ring != nil {
			c.ring.record(pc, w, !ok)
		}
		if !ok {
			return &Exception{Kind: ExcMonitorAlarm, PC: pc}
		}
		if e&wordValid == 0 {
			return &Exception{Kind: ExcReservedInstr, PC: pc}
		}
	} else {
		if c.Trace != nil && !c.Trace(pc, w) {
			return &Exception{Kind: ExcMonitorAlarm, PC: pc}
		}
		if !isa.Valid(w) {
			return &Exception{Kind: ExcReservedInstr, PC: pc}
		}
	}

	c.Cycles++
	c.Retired++
	next := pc + 4

	switch w.Op() {
	case isa.OpSpecial:
		exc := c.execSpecial(pc, w, &next)
		if exc != nil {
			return exc
		}
	case isa.OpRegImm:
		rs := int32(c.Regs[w.Rs()])
		taken := false
		switch w.Rt() {
		case isa.RtBLTZ:
			taken = rs < 0
		case isa.RtBGEZ:
			taken = rs >= 0
		case isa.RtBLTZAL:
			taken = rs < 0
			c.Regs[isa.RegRA] = pc + 4
		case isa.RtBGEZAL:
			taken = rs >= 0
			c.Regs[isa.RegRA] = pc + 4
		}
		if taken {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpJ:
		next = isa.JumpTarget(pc, w)
	case isa.OpJAL:
		c.Regs[isa.RegRA] = pc + 4
		next = isa.JumpTarget(pc, w)
	case isa.OpBEQ:
		if c.Regs[w.Rs()] == c.Regs[w.Rt()] {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpBNE:
		if c.Regs[w.Rs()] != c.Regs[w.Rt()] {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpBLEZ:
		if int32(c.Regs[w.Rs()]) <= 0 {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpBGTZ:
		if int32(c.Regs[w.Rs()]) > 0 {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpADDI:
		a, b := int32(c.Regs[w.Rs()]), w.SImm()
		s := a + b
		if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
			return &Exception{Kind: ExcOverflow, PC: pc}
		}
		c.setReg(w.Rt(), uint32(s))
	case isa.OpADDIU:
		c.setReg(w.Rt(), c.Regs[w.Rs()]+uint32(w.SImm()))
	case isa.OpSLTI:
		if int32(c.Regs[w.Rs()]) < w.SImm() {
			c.setReg(w.Rt(), 1)
		} else {
			c.setReg(w.Rt(), 0)
		}
	case isa.OpSLTIU:
		if c.Regs[w.Rs()] < uint32(w.SImm()) {
			c.setReg(w.Rt(), 1)
		} else {
			c.setReg(w.Rt(), 0)
		}
	case isa.OpANDI:
		c.setReg(w.Rt(), c.Regs[w.Rs()]&uint32(w.Imm()))
	case isa.OpORI:
		c.setReg(w.Rt(), c.Regs[w.Rs()]|uint32(w.Imm()))
	case isa.OpXORI:
		c.setReg(w.Rt(), c.Regs[w.Rs()]^uint32(w.Imm()))
	case isa.OpLUI:
		c.setReg(w.Rt(), uint32(w.Imm())<<16)
	default:
		if exc := c.execMem(pc, w); exc != nil {
			return exc
		}
	}

	c.PC = next
	return nil
}

func (c *CPU) setReg(r, v uint32) {
	if r != isa.RegZero {
		c.Regs[r] = v
	}
}

func (c *CPU) execSpecial(pc uint32, w isa.Word, next *uint32) *Exception {
	rs, rt := c.Regs[w.Rs()], c.Regs[w.Rt()]
	switch w.Fn() {
	case isa.FnSLL:
		c.setReg(w.Rd(), rt<<w.Shamt())
	case isa.FnSRL:
		c.setReg(w.Rd(), rt>>w.Shamt())
	case isa.FnSRA:
		c.setReg(w.Rd(), uint32(int32(rt)>>w.Shamt()))
	case isa.FnSLLV:
		c.setReg(w.Rd(), rt<<(rs&31))
	case isa.FnSRLV:
		c.setReg(w.Rd(), rt>>(rs&31))
	case isa.FnSRAV:
		c.setReg(w.Rd(), uint32(int32(rt)>>(rs&31)))
	case isa.FnJR:
		*next = rs
	case isa.FnJALR:
		c.setReg(w.Rd(), pc+4)
		*next = rs
	case isa.FnSYSCALL:
		if c.Syscall == nil {
			return &Exception{Kind: ExcSyscall, PC: pc}
		}
		if !c.Syscall(c) {
			c.halted = true
		}
	case isa.FnBREAK:
		c.halted = true
	case isa.FnMFHI:
		c.setReg(w.Rd(), c.Hi)
	case isa.FnMTHI:
		c.Hi = rs
	case isa.FnMFLO:
		c.setReg(w.Rd(), c.Lo)
	case isa.FnMTLO:
		c.Lo = rs
	case isa.FnMULT:
		c.Cycles += extraCyclesMult
		p := int64(int32(rs)) * int64(int32(rt))
		c.Hi, c.Lo = uint32(uint64(p)>>32), uint32(uint64(p))
	case isa.FnMULTU:
		c.Cycles += extraCyclesMult
		p := uint64(rs) * uint64(rt)
		c.Hi, c.Lo = uint32(p>>32), uint32(p)
	case isa.FnDIV:
		c.Cycles += extraCyclesDiv
		switch {
		case rt == 0:
			// MIPS leaves HI/LO unpredictable on divide-by-zero; keep them.
		case int32(rs) == -1<<31 && int32(rt) == -1:
			// Overflow corner: Go would panic on INT_MIN / -1. MIPS
			// defines no trap; the hardware quotient wraps to INT_MIN.
			c.Lo = rs
			c.Hi = 0
		default:
			c.Lo = uint32(int32(rs) / int32(rt))
			c.Hi = uint32(int32(rs) % int32(rt))
		}
	case isa.FnDIVU:
		c.Cycles += extraCyclesDiv
		if rt != 0 {
			c.Lo = rs / rt
			c.Hi = rs % rt
		}
	case isa.FnADD:
		a, b := int32(rs), int32(rt)
		s := a + b
		if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
			return &Exception{Kind: ExcOverflow, PC: pc}
		}
		c.setReg(w.Rd(), uint32(s))
	case isa.FnADDU:
		c.setReg(w.Rd(), rs+rt)
	case isa.FnSUB:
		a, b := int32(rs), int32(rt)
		s := a - b
		if (a >= 0 && b < 0 && s < 0) || (a < 0 && b >= 0 && s >= 0) {
			return &Exception{Kind: ExcOverflow, PC: pc}
		}
		c.setReg(w.Rd(), uint32(s))
	case isa.FnSUBU:
		c.setReg(w.Rd(), rs-rt)
	case isa.FnAND:
		c.setReg(w.Rd(), rs&rt)
	case isa.FnOR:
		c.setReg(w.Rd(), rs|rt)
	case isa.FnXOR:
		c.setReg(w.Rd(), rs^rt)
	case isa.FnNOR:
		c.setReg(w.Rd(), ^(rs | rt))
	case isa.FnSLT:
		if int32(rs) < int32(rt) {
			c.setReg(w.Rd(), 1)
		} else {
			c.setReg(w.Rd(), 0)
		}
	case isa.FnSLTU:
		if rs < rt {
			c.setReg(w.Rd(), 1)
		} else {
			c.setReg(w.Rd(), 0)
		}
	}
	return nil
}

func (c *CPU) execMem(pc uint32, w isa.Word) *Exception {
	addr := c.Regs[w.Rs()] + uint32(w.SImm())
	switch w.Op() {
	case isa.OpLB:
		c.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load8(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		c.setReg(w.Rt(), uint32(int32(int8(v))))
	case isa.OpLBU:
		c.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load8(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		c.setReg(w.Rt(), v)
	case isa.OpLH:
		if addr&1 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		c.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load16(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		c.setReg(w.Rt(), uint32(int32(int16(v))))
	case isa.OpLHU:
		if addr&1 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		c.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load16(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		c.setReg(w.Rt(), v)
	case isa.OpLW:
		if addr&3 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		c.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load32(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		c.setReg(w.Rt(), v)
	case isa.OpSB:
		if !c.Mem.Store8(addr, c.Regs[w.Rt()]) {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
	case isa.OpSH:
		if addr&1 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		if !c.Mem.Store16(addr, c.Regs[w.Rt()]) {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
	case isa.OpSW:
		if addr&3 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		if !c.Mem.Store32(addr, c.Regs[w.Rt()]) {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
	}
	return nil
}
