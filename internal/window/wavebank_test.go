package window

import (
	"bytes"
	"testing"

	"ecmsketch/internal/hashing"
)

// Golden-vector tests for the wave engines: the hex blobs below were produced
// by the per-object level-deque encoders that predate the flat wave arenas.
// They pin the wireDW/wireRW formats across the layout refactor — serialized
// waves from earlier commits must keep decoding into both the per-object
// engines and the banks, answering queries identically and re-encoding to the
// exact same bytes.

const (
	// dwGoldenHex encodes an ε=0.08, W=500, u=2000 deterministic wave fed 600
	// bursty AddN calls (deterministic stream; fingerprint in the assertions).
	dwGoldenHex = "e200f4037b14ae47e17ab43f0000000000000000d00f07ee09a3070a0f01c60995070101000100010001030100010101" +
		"00010001000102010301000100010f01ac09860704020602000203020402060203020102000203020102000202020302" +
		"0f018709e806030408040a04030405040604000406040604070409040104040402040f01b008b0060f080d0803080b08" +
		"2308060804080b080d080b0806080d080a0806080f019607c0050e100c10251017101e10141012101c100e1029100f10" +
		"1810131010100b009206e0043120202033201a203c2032202e203720272023200500c30680055340564060405e400300" +
		"c3068005a9018001be0180010100ec0780060000"

	// dwMergeGoldenHex is the MergeDW aggregation of the wave above with a
	// second 300-arrival stream, pinning the order-preserving merge output.
	dwMergeGoldenHex = "e200f4037b14ae47e17ab43f0000000000000000d00f07ee09e9030a0f01c609db030001010100010001000103010001" +
		"01010001000100010201030100010f01ac09cc0304020602000203020402060203020002010200020302010200020502" +
		"0f018709b003030408040a0403040504060402040a0403040a0403040104040405040f01b008f8020f080d0803080b08" +
		"2308060804080b080d080b080c080d08040809080f01960780020e100c10251017101e10141012100f1010102e100a10" +
		"1810171011100b009206a0013120202033201a203c20322021203e20222028200500c306c00153405640534060400200" +
		"96078002a90180010100960780020000"

	// rwGoldenHex encodes an ε=0.6, δ=0.3, W=200, u=400 randomized wave fed
	// 150 Add calls under an explicit identifier salt.
	rwGoldenHex = "e300c801333333333333e33f333333333333d33f90030be9019601effdb6f59daad4a851960103080c01d201cec19e98" +
		"e38b89fe4c00c4bee3fd9daeb5ed4c0180c5d1dee78098d2070298c0fac687a484d3520098e2f3e0f899eea19c01028c" +
		"ccaed4e3a4ad80bb0102cafca0b1c0db8e8f810102bd8499d9c58d9b913800fada9fd3a8fdadcb60028288b1d789f3b2" +
		"81f30101c1d0c5dfb88fa6b24901e891e6cda2939aedf5010c01bd01fad486ccefed8fabd10104c79fe5fc81a9fdccf0" +
		"0108d6bfb8dadfc9ee886f01b2c598b9ef918bfb49018d8e93959c9afbaefb0105be81bfe6da82d5d37602cec19e98e3" +
		"8b89fe4c0180c5d1dee78098d2070298e2f3e0f899eea19c0104cafca0b1c0db8e8f810105c1d0c5dfb88fa6b24901e8" +
		"91e6cda2939aedf5010c019b019cbbf5efd4b8fb90c30105b591a689defbba8f4c0792cfadd19a93aa83b80113edb8e0" +
		"ffb086decb5507c79fe5fc81a9fdccf00108d6bfb8dadfc9ee886f01b2c598b9ef918bfb4906be81bfe6da82d5d37602" +
		"cec19e98e38b89fe4c0180c5d1dee78098d20706cafca0b1c0db8e8f810106e891e6cda2939aedf5010c0180019b84a1" +
		"aab4d3d4b9371581e2afa2c7aef7e060069cbbf5efd4b8fb90c30105b591a689defbba8f4c0792cfadd19a93aa83b801" +
		"13edb8e0ffb086decb5507c79fe5fc81a9fdccf00109b2c598b9ef918bfb4906be81bfe6da82d5d37602cec19e98e38b" +
		"89fe4c0180c5d1dee78098d2070ce891e6cda2939aedf501040067b1df81dcfed589908601199b84a1aab4d3d4b9374a" +
		"b2c598b9ef918bfb4908cec19e98e38b89fe4c010080019b84a1aab4d3d4b937010080019b84a1aab4d3d4b937010080" +
		"019b84a1aab4d3d4b9370c01d201cec19e98e38b89fe4c00c4bee3fd9daeb5ed4c0180c5d1dee78098d2070298c0fac6" +
		"87a484d3520098e2f3e0f899eea19c01028cccaed4e3a4ad80bb0102cafca0b1c0db8e8f810102bd8499d9c58d9b9138" +
		"00fada9fd3a8fdadcb60028288b1d789f3b281f30101c1d0c5dfb88fa6b24901e891e6cda2939aedf5010c01bd01fad4" +
		"86ccefed8fabd10101ee89ac9ae58a8ca965059da88592ad95d6be9e0107b2c598b9ef918bfb4906be81bfe6da82d5d3" +
		"7602cec19e98e38b89fe4c0180c5d1dee78098d2070298e2f3e0f899eea19c01028cccaed4e3a4ad80bb0102cafca0b1" +
		"c0db8e8f810105c1d0c5dfb88fa6b24901e891e6cda2939aedf5010c019a01ce86cee7ffead1c9890100fedfb4bf9ecc" +
		"bf877e0080cbebc0ae91f0fde7010da2dad6efb0c083e0830106c5bea29687e8bac41d03d5a7b6bce39a86bd61048889" +
		"9085f8d5c1ef371cbe81bfe6da82d5d37602cec19e98e38b89fe4c0398e2f3e0f899eea19c01028cccaed4e3a4ad80bb" +
		"0107c1d0c5dfb88fa6b2490c015ab2bcf6aea19db2f16008bb82db88c4aff3d9950109e5b5a5e2cdd5a084e50106fd80" +
		"fda1dfa1d7a3de010692d99aa692908180e70106ee8e9c8988c1cad02908b5e2b0f8bac0f586e90103f49ba48f9de6e9" +
		"c03212ce86cee7ffead1c9890100fedfb4bf9eccbf877e0080cbebc0ae91f0fde70116d5a7b6bce39a86bd6107002fd5" +
		"91a7ef96878d97d9010390a4b8c6e79cadaa7103a5be9bd6cd83f6a86e2dbb82db88c4aff3d995011bee8e9c8988c1ca" +
		"d02908b5e2b0f8bac0f586e9011580cbebc0ae91f0fde70103003290a4b8c6e79cadaa7130bb82db88c4aff3d9950138" +
		"80cbebc0ae91f0fde701010062bb82db88c4aff3d9950100000c01d201cec19e98e38b89fe4c00c4bee3fd9daeb5ed4c" +
		"0180c5d1dee78098d2070298c0fac687a484d3520098e2f3e0f899eea19c01028cccaed4e3a4ad80bb0102cafca0b1c0" +
		"db8e8f810102bd8499d9c58d9b913800fada9fd3a8fdadcb60028288b1d789f3b281f30101c1d0c5dfb88fa6b24901e8" +
		"91e6cda2939aedf5010c01be01ee89ac9ae58a8ca96503c79fe5fc81a9fdccf0010593ba8c8c9b94ecf35e03d6bfb8da" +
		"dfc9ee886f028d8e93959c9afbaefb0102a5b79bf38eeeb19fa30103be81bfe6da82d5d37602c4bee3fd9daeb5ed4c03" +
		"98c0fac687a484d35206bd8499d9c58d9b913800fada9fd3a8fdadcb6004e891e6cda2939aedf5010c018e01b89adcf8" +
		"9d82b0a65705c1e4ebf0bbd186fd3f0783b3f1d4cb83f3cda00118d7dba2ff85d7f2a8170288899085f8d5c1ef370685" +
		"dde794acdcd7967704ee89ac9ae58a8ca9650893ba8c8c9b94ecf35e03d6bfb8dadfc9ee886f04a5b79bf38eeeb19fa3" +
		"010ebd8499d9c58d9b913804e891e6cda2939aedf5010c0145c8d7afe496828bf0d90104e0beae94f3d5ad86be011ab8" +
		"96a1b6bcaf999c5804b1df81dcfed58990860113e2ab97e5c09bff9adf010186e0f5a9a49ae0b52e10ecdcceae90f2d3" +
		"8e270f83b3f1d4cb83f3cda0011a88899085f8d5c1ef370685dde794acdcd7967713a5b79bf38eeeb19fa30112e891e6" +
		"cda2939aedf5010a0022e0c7ccb1b380a387a30108e7d888ecdebb96ab3f1bedffd29ac1f1d3927600c8d7afe496828b" +
		"f0d90104e0beae94f3d5ad86be013286e0f5a9a49ae0b52e3988899085f8d5c1ef370685dde794acdcd7967713a5b79b" +
		"f38eeeb19fa30112e891e6cda2939aedf501050022e0c7ccb1b380a387a30108e7d888ecdebb96ab3f5186e0f5a9a49a" +
		"e0b52e3988899085f8d5c1ef3719a5b79bf38eeeb19fa30102007b86e0f5a9a49ae0b52e52a5b79bf38eeeb19fa30101" +
		"00cd01a5b79bf38eeeb19fa301"
)

func dwGoldenConfig() Config {
	return Config{Length: 500, Epsilon: 0.08, UpperBound: 2000, Seed: 7}
}

func rwGoldenConfig() Config {
	return Config{Length: 200, Epsilon: 0.6, Delta: 0.3, UpperBound: 400, Seed: 11}
}

func TestGoldenDWDecode(t *testing.T) {
	w, err := UnmarshalDW(mustGolden(t, dwGoldenHex))
	if err != nil {
		t.Fatalf("decoding golden DW: %v", err)
	}
	if got := w.Now(); got != 1262 {
		t.Errorf("Now = %d, want 1262", got)
	}
	if got := w.rank; got != 931 {
		t.Errorf("rank = %d, want 931", got)
	}
	if got := w.EstimateWindow(); got != 339.5 {
		t.Errorf("EstimateWindow = %v, want 339.5", got)
	}
	if got := w.EstimateRange(100); got != 53.5 {
		t.Errorf("EstimateRange(100) = %v, want 53.5", got)
	}
	if enc := w.Marshal(); !bytes.Equal(enc, mustGolden(t, dwGoldenHex)) {
		t.Error("re-encoding golden DW changed its bytes")
	}

	m, err := UnmarshalDW(mustGolden(t, dwMergeGoldenHex))
	if err != nil {
		t.Fatalf("decoding golden merged DW: %v", err)
	}
	if got := m.Now(); got != 1262 {
		t.Errorf("merged Now = %d, want 1262", got)
	}
	if got := m.rank; got != 489 {
		t.Errorf("merged rank = %d, want 489", got)
	}
	if got := m.EstimateWindow(); got != 345.5 {
		t.Errorf("merged EstimateWindow = %v, want 345.5", got)
	}
}

func TestGoldenRWDecode(t *testing.T) {
	w, err := UnmarshalRW(mustGolden(t, rwGoldenHex))
	if err != nil {
		t.Fatalf("decoding golden RW: %v", err)
	}
	if got := w.Now(); got != 233 {
		t.Errorf("Now = %d, want 233", got)
	}
	if got := w.count; got != 150 {
		t.Errorf("count = %d, want 150", got)
	}
	if got, want := w.Copies(), 3; got != want {
		t.Errorf("Copies = %d, want %d", got, want)
	}
	if got, want := w.Levels(), 8; got != want {
		t.Errorf("Levels = %d, want %d", got, want)
	}
	if got := w.EstimateWindow(); got != 112 {
		t.Errorf("EstimateWindow = %v, want 112", got)
	}
	if enc := w.Marshal(); !bytes.Equal(enc, mustGolden(t, rwGoldenHex)) {
		t.Error("re-encoding golden RW changed its bytes")
	}
}

// TestDWBankGolden round-trips the pre-arena golden vector through a bank
// cell: decode, identical answers, byte-identical re-encode, bare-form delta
// round trip, and rejection of mismatched configs, shapes and garbage.
func TestDWBankGolden(t *testing.T) {
	golden := mustGolden(t, dwGoldenHex)
	b, err := NewDWBank(dwGoldenConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalCell(2, golden); err != nil {
		t.Fatalf("decoding golden DW into bank cell: %v", err)
	}
	if got := b.Now(2); got != 1262 {
		t.Errorf("Now = %d, want 1262", got)
	}
	if got := b.Rank(2); got != 931 {
		t.Errorf("Rank = %d, want 931", got)
	}
	if got := b.EstimateWindow(2); got != 339.5 {
		t.Errorf("EstimateWindow = %v, want 339.5", got)
	}
	if got := b.EstimateRange(2, 100); got != 53.5 {
		t.Errorf("EstimateRange(100) = %v, want 53.5", got)
	}
	enc := b.AppendMarshalCell(nil, 2)
	if !bytes.Equal(enc, golden) {
		t.Error("bank re-encoding of golden DW changed its bytes")
	}

	// Bare form drops exactly the config bytes and round-trips through an
	// empty cell of a compatible bank.
	bare := b.AppendMarshalCellBare(nil, 2)
	if want := len(golden) - len(appendConfig(nil, b.Config())); len(bare) != want {
		t.Errorf("bare encoding is %d bytes, want %d", len(bare), want)
	}
	b2, err := NewDWBank(dwGoldenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.UnmarshalCell(0, bare); err != nil {
		t.Fatalf("decoding bare DW cell: %v", err)
	}
	if !bytes.Equal(b2.AppendMarshalCell(nil, 0), golden) {
		t.Error("bare round trip does not reproduce the full encoding")
	}

	// A bank with a different config must reject the full form (config
	// mismatch) — and the bare form too, via the level-count shape check.
	other := dwGoldenConfig()
	other.Epsilon = 0.3
	b3, err := NewDWBank(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b3.UnmarshalCell(0, golden); err == nil {
		t.Error("mismatched config accepted")
	}
	if err := b3.UnmarshalCell(0, bare); err == nil {
		t.Error("mismatched bare shape accepted")
	}
	if err := b2.UnmarshalCell(0, []byte{wireRW}); err == nil {
		t.Error("RW tag accepted by DW bank")
	}
	for cut := 1; cut < len(golden); cut += 37 {
		fresh, err := NewDWBank(dwGoldenConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalCell(0, golden[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestRWBankGolden mirrors TestDWBankGolden for the randomized wave bank.
func TestRWBankGolden(t *testing.T) {
	golden := mustGolden(t, rwGoldenHex)
	b, err := NewRWBank(rwGoldenConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalCell(1, golden); err != nil {
		t.Fatalf("decoding golden RW into bank cell: %v", err)
	}
	if got := b.Now(1); got != 233 {
		t.Errorf("Now = %d, want 233", got)
	}
	if got := b.Count(1); got != 150 {
		t.Errorf("Count = %d, want 150", got)
	}
	if got := b.EstimateWindow(1); got != 112 {
		t.Errorf("EstimateWindow = %v, want 112", got)
	}
	enc := b.AppendMarshalCell(nil, 1)
	if !bytes.Equal(enc, golden) {
		t.Error("bank re-encoding of golden RW changed its bytes")
	}

	bare := b.AppendMarshalCellBare(nil, 1)
	if want := len(golden) - len(appendConfig(nil, b.Config())); len(bare) != want {
		t.Errorf("bare encoding is %d bytes, want %d", len(bare), want)
	}
	b2, err := NewRWBank(rwGoldenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.UnmarshalCell(0, bare); err != nil {
		t.Fatalf("decoding bare RW cell: %v", err)
	}
	if !bytes.Equal(b2.AppendMarshalCell(nil, 0), golden) {
		t.Error("bare round trip does not reproduce the full encoding")
	}

	other := rwGoldenConfig()
	other.Delta = 0.01 // more repetitions: shape mismatch
	b3, err := NewRWBank(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b3.UnmarshalCell(0, golden); err == nil {
		t.Error("mismatched config accepted")
	}
	if err := b3.UnmarshalCell(0, bare); err == nil {
		t.Error("mismatched bare shape accepted")
	}
	if err := b2.UnmarshalCell(0, []byte{wireDW}); err == nil {
		t.Error("DW tag accepted by RW bank")
	}
	for cut := 1; cut < len(golden); cut += 131 {
		fresh, err := NewRWBank(rwGoldenConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalCell(0, golden[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// xorshift64 is the deterministic stream driver shared by the equivalence
// tests below.
func xorshift64(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

// TestDWBankMatchesDW drives a bank and per-object waves with the same
// streams and requires bit-identical estimates and byte-identical encodings
// at every checkpoint.
func TestDWBankMatchesDW(t *testing.T) {
	cfg := Config{Length: 300, Epsilon: 0.12, UpperBound: 5000, Seed: 3}
	const n = 6
	b, err := NewDWBank(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*DW, n)
	for i := range refs {
		if refs[i], err = NewDW(cfg); err != nil {
			t.Fatal(err)
		}
	}
	nows := make([]Tick, n)
	seed := uint64(0xABCDEF12345)
	for step := 0; step < 4000; step++ {
		i := int(xorshift64(&seed) % n)
		nows[i] += xorshift64(&seed) % 6
		switch xorshift64(&seed) % 8 {
		case 0: // pure advance, occasionally far ahead
			adv := nows[i] + xorshift64(&seed)%400
			b.Advance(i, adv)
			refs[i].Advance(adv)
		case 1: // burst
			k := xorshift64(&seed) % 40
			b.AddN(i, nows[i], k)
			refs[i].AddN(nows[i], k)
		default:
			b.Add(i, nows[i])
			refs[i].Add(nows[i])
		}
		if step%97 == 0 {
			j := int(xorshift64(&seed) % n)
			since := Tick(xorshift64(&seed) % 700)
			if got, want := b.EstimateSince(j, since), refs[j].EstimateSince(since); got != want {
				t.Fatalf("step %d cell %d: EstimateSince(%d) = %v, per-object %v", step, j, since, got, want)
			}
		}
	}
	for i := 0; i < n; i++ {
		if got, want := b.Now(i), refs[i].Now(); got != want {
			t.Errorf("cell %d: Now = %d, per-object %d", i, got, want)
		}
		if got, want := b.EstimateWindow(i), refs[i].EstimateWindow(); got != want {
			t.Errorf("cell %d: EstimateWindow = %v, per-object %v", i, got, want)
		}
		if got, want := b.AppendMarshalCell(nil, i), refs[i].Marshal(); !bytes.Equal(got, want) {
			t.Errorf("cell %d: bank encoding differs from per-object encoding", i)
		}
	}
}

// TestRWBankMatchesRW is the randomized-wave equivalent: identical salts make
// the auto-generated identifiers (and hence all bytes) deterministic.
func TestRWBankMatchesRW(t *testing.T) {
	cfg := Config{Length: 250, Epsilon: 0.5, Delta: 0.25, UpperBound: 3000, Seed: 17}
	const n = 4
	b, err := NewRWBank(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*RW, n)
	for i := range refs {
		if refs[i], err = NewRW(cfg); err != nil {
			t.Fatal(err)
		}
		salt := uint64(0xFEED_0000_0000_0000) + uint64(i)
		refs[i].SetIDSalt(salt)
		b.SetCellIDSalt(i, salt)
	}
	nows := make([]Tick, n)
	seed := uint64(0x1234_5678_9ABC)
	for step := 0; step < 3000; step++ {
		i := int(xorshift64(&seed) % n)
		nows[i] += xorshift64(&seed) % 4
		switch xorshift64(&seed) % 8 {
		case 0:
			adv := nows[i] + xorshift64(&seed)%300
			b.Advance(i, adv)
			refs[i].Advance(adv)
		case 1: // explicit identifier (duplicate-insensitive path)
			id := xorshift64(&seed) % 512
			b.AddID(i, nows[i], id)
			refs[i].AddID(nows[i], id)
		default:
			b.Add(i, nows[i])
			refs[i].Add(nows[i])
		}
		if step%89 == 0 {
			j := int(xorshift64(&seed) % n)
			since := Tick(xorshift64(&seed) % 600)
			if got, want := b.EstimateSince(j, since), refs[j].EstimateSince(since); got != want {
				t.Fatalf("step %d cell %d: EstimateSince(%d) = %v, per-object %v", step, j, since, got, want)
			}
		}
	}
	for i := 0; i < n; i++ {
		if got, want := b.Now(i), refs[i].Now(); got != want {
			t.Errorf("cell %d: Now = %d, per-object %d", i, got, want)
		}
		if got, want := b.EstimateWindow(i), refs[i].EstimateWindow(); got != want {
			t.Errorf("cell %d: EstimateWindow = %v, per-object %v", i, got, want)
		}
		if got, want := b.AppendMarshalCell(nil, i), refs[i].Marshal(); !bytes.Equal(got, want) {
			t.Errorf("cell %d: bank encoding differs from per-object encoding", i)
		}
	}
}

// TestDWBankMergeMatchesMergeDW checks that bank cell merges produce the
// exact bytes the per-object order-preserving aggregation produces.
func TestDWBankMergeMatchesMergeDW(t *testing.T) {
	cfg := Config{Length: 400, Epsilon: 0.15, UpperBound: 4000, Seed: 9}
	const n = 3
	banks := make([]*DWBank, 2)
	waves := make([][]*DW, 2)
	seed := uint64(0xC0FFEE)
	for s := range banks {
		var err error
		if banks[s], err = NewDWBank(cfg, n); err != nil {
			t.Fatal(err)
		}
		waves[s] = make([]*DW, n)
		for i := range waves[s] {
			if waves[s][i], err = NewDW(cfg); err != nil {
				t.Fatal(err)
			}
			var now Tick
			steps := 200 + int(xorshift64(&seed)%400)
			for k := 0; k < steps; k++ {
				now += xorshift64(&seed) % 5
				cnt := xorshift64(&seed) % 4
				banks[s].AddN(i, now, cnt)
				waves[s][i].AddN(now, cnt)
			}
		}
	}
	out, err := NewDWBank(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ref, err := MergeDW(cfg, waves[0][i], waves[1][i])
		if err != nil {
			t.Fatal(err)
		}
		now := banks[0].Now(i)
		if t2 := banks[1].Now(i); t2 > now {
			now = t2
		}
		out.MergeCellFrom(i, i, now, []*DWBank{banks[0], banks[1]})
		if got, want := out.AppendMarshalCell(nil, i), ref.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("cell %d: bank merge encoding differs from MergeDW", i)
		}
	}
}

// TestRWBankMergeMatchesMergeRW checks the position-wise union against the
// per-object merge. MergeRW draws a random salt for the merged wave (nothing
// pins it); the bank derives a deterministic fold of the input salts, so the
// test sets the per-object salt to the same fold before comparing bytes.
func TestRWBankMergeMatchesMergeRW(t *testing.T) {
	cfg := Config{Length: 300, Epsilon: 0.45, Delta: 0.3, UpperBound: 2000, Seed: 23}
	const n = 3
	banks := make([]*RWBank, 2)
	waves := make([][]*RW, 2)
	seed := uint64(0xDEADBEA7)
	for s := range banks {
		var err error
		if banks[s], err = NewRWBank(cfg, n); err != nil {
			t.Fatal(err)
		}
		waves[s] = make([]*RW, n)
		for i := range waves[s] {
			if waves[s][i], err = NewRW(cfg); err != nil {
				t.Fatal(err)
			}
			salt := xorshift64(&seed)
			waves[s][i].SetIDSalt(salt)
			banks[s].SetCellIDSalt(i, salt)
			var now Tick
			steps := 150 + int(xorshift64(&seed)%300)
			for k := 0; k < steps; k++ {
				now += xorshift64(&seed) % 4
				banks[s].Add(i, now)
				waves[s][i].Add(now)
			}
		}
	}
	out, err := NewRWBank(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ref, err := MergeRW(cfg, waves[0][i], waves[1][i])
		if err != nil {
			t.Fatal(err)
		}
		out.MergeCellFrom(i, i, 0, []*RWBank{banks[0], banks[1]})
		salt := uint64(0x9e3779b97f4a7c15)
		salt = hashing.Mix64(salt ^ banks[0].cells[i].salt)
		salt = hashing.Mix64(salt ^ banks[1].cells[i].salt)
		ref.salt = salt
		ref.seq = 0
		if got, want := out.AppendMarshalCell(nil, i), ref.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("cell %d: bank merge encoding differs from MergeRW", i)
		}
		if got, want := out.EstimateWindow(i), ref.EstimateWindow(); got != want {
			t.Errorf("cell %d: merged EstimateWindow = %v, per-object %v", i, got, want)
		}
	}
}

// TestDWBankVersioning pins the change-tracking contract shared with EHBank:
// arrivals and resets bump, advances and queries do not.
func TestDWBankVersioning(t *testing.T) {
	b, err := NewDWBank(Config{Length: 100, Epsilon: 0.2, UpperBound: 1000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	v0 := b.Version()
	b.Add(1, 10)
	if !b.CellChangedSince(1, v0) {
		t.Error("Add did not mark the cell changed")
	}
	if b.CellChangedSince(0, v0) {
		t.Error("untouched cell marked changed")
	}
	v1 := b.Version()
	b.Advance(1, 500)
	AdvanceAll(b, 600, nil)
	_ = b.EstimateWindow(1)
	if b.Version() != v1 {
		t.Error("advance or query bumped the version")
	}
	if b.CellChangedSince(1, v1) {
		t.Error("advance marked the cell changed")
	}
	b.AddN(2, 700, 0) // zero arrivals is an advance
	if b.Version() != v1 {
		t.Error("AddN(0) bumped the version")
	}
	b.ResetCell(1)
	if !b.CellChangedSince(1, v1) {
		t.Error("ResetCell did not mark the cell changed")
	}
	v2 := b.Version()
	b.Reset()
	for i := 0; i < b.Len(); i++ {
		if !b.CellChangedSince(i, v2) {
			t.Errorf("Reset did not mark cell %d changed", i)
		}
	}
}

// TestRWBankResetRefill verifies that Reset reclaims the arena but keeps the
// per-cell salts, so an identical refill reproduces identical bytes.
func TestRWBankResetRefill(t *testing.T) {
	cfg := Config{Length: 120, Epsilon: 0.5, Delta: 0.3, UpperBound: 600, Seed: 5}
	b, err := NewRWBank(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill := func() {
		var now Tick
		seed := uint64(42)
		for k := 0; k < 400; k++ {
			now += xorshift64(&seed) % 3
			b.Add(int(xorshift64(&seed)%2), now)
		}
	}
	fill()
	first := b.AppendMarshalCell(nil, 0)
	first = b.AppendMarshalCell(first, 1)
	mem := b.MemoryBytes()
	b.Reset()
	fill()
	second := b.AppendMarshalCell(nil, 0)
	second = b.AppendMarshalCell(second, 1)
	if !bytes.Equal(first, second) {
		t.Error("refill after Reset produced different bytes")
	}
	if got := b.MemoryBytes(); got > mem {
		t.Errorf("refill grew the arena: %d > %d bytes", got, mem)
	}
}

// TestWaveBankClone verifies deep independence of clones for both banks.
func TestWaveBankClone(t *testing.T) {
	dcfg := Config{Length: 90, Epsilon: 0.25, UpperBound: 900, Seed: 2}
	db, err := NewDWBank(dcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 300; k++ {
		db.Add(k%2, Tick(k))
	}
	dc := db.Clone().(*DWBank)
	if !bytes.Equal(db.AppendMarshalCell(nil, 0), dc.AppendMarshalCell(nil, 0)) {
		t.Error("DW clone encodes differently")
	}
	before := dc.EstimateWindow(0)
	for k := 301; k <= 600; k++ {
		db.Add(0, Tick(k))
	}
	if got := dc.EstimateWindow(0); got != before {
		t.Error("mutating the DW source changed the clone")
	}

	rcfg := Config{Length: 90, Epsilon: 0.6, Delta: 0.3, UpperBound: 900, Seed: 2}
	rb, err := NewRWBank(rcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 300; k++ {
		rb.Add(k%2, Tick(k))
	}
	rc := rb.Clone().(*RWBank)
	if !bytes.Equal(rb.AppendMarshalCell(nil, 1), rc.AppendMarshalCell(nil, 1)) {
		t.Error("RW clone encodes differently")
	}
	rBefore := rc.EstimateWindow(1)
	for k := 301; k <= 600; k++ {
		rb.Add(1, Tick(k))
	}
	if got := rc.EstimateWindow(1); got != rBefore {
		t.Error("mutating the RW source changed the clone")
	}
}

// FuzzWaveBank feeds byte-driven op sequences to a DW bank cell and a RW bank
// cell alongside their per-object twins and requires identical estimates and
// identical encodings, then round-trips the encodings through fresh banks.
func FuzzWaveBank(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 0, 255, 7}, uint16(50))
	f.Add([]byte{0, 0, 0, 0, 200, 200, 9, 9, 9, 1}, uint16(0))
	f.Fuzz(func(t *testing.T, ops []byte, since uint16) {
		dcfg := Config{Length: 64, Epsilon: 0.3, UpperBound: 512, Seed: 1}
		rcfg := Config{Length: 64, Epsilon: 0.7, Delta: 0.4, UpperBound: 512, Seed: 1}
		db, err := NewDWBank(dcfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		dw, err := NewDW(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewRWBank(rcfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := NewRW(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		rw.SetIDSalt(99)
		rb.SetCellIDSalt(1, 99)
		var now Tick
		for _, op := range ops {
			now += Tick(op % 7)
			switch {
			case op%11 == 0:
				adv := now + Tick(op)
				db.Advance(1, adv)
				dw.Advance(adv)
				rb.Advance(1, adv)
				rw.Advance(adv)
			case op%5 == 0:
				cnt := uint64(op % 19)
				db.AddN(1, now, cnt)
				dw.AddN(now, cnt)
				rb.AddID(1, now, uint64(op))
				rw.AddID(now, uint64(op))
			default:
				db.Add(1, now)
				dw.Add(now)
				rb.Add(1, now)
				rw.Add(now)
			}
		}
		s := Tick(since)
		if got, want := db.EstimateSince(1, s), dw.EstimateSince(s); got != want {
			t.Fatalf("DW EstimateSince(%d) = %v, per-object %v", s, got, want)
		}
		if got, want := rb.EstimateSince(1, s), rw.EstimateSince(s); got != want {
			t.Fatalf("RW EstimateSince(%d) = %v, per-object %v", s, got, want)
		}
		denc := db.AppendMarshalCell(nil, 1)
		if !bytes.Equal(denc, dw.Marshal()) {
			t.Fatal("DW bank and per-object encodings differ")
		}
		renc := rb.AppendMarshalCell(nil, 1)
		if !bytes.Equal(renc, rw.Marshal()) {
			t.Fatal("RW bank and per-object encodings differ")
		}
		db2, err := NewDWBank(dcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := db2.UnmarshalCell(0, denc); err != nil {
			t.Fatalf("round-tripping DW cell: %v", err)
		}
		if !bytes.Equal(db2.AppendMarshalCell(nil, 0), denc) {
			t.Fatal("DW round trip changed bytes")
		}
		rb2, err := NewRWBank(rcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := rb2.UnmarshalCell(0, renc); err != nil {
			t.Fatalf("round-tripping RW cell: %v", err)
		}
		if !bytes.Equal(rb2.AppendMarshalCell(nil, 0), renc) {
			t.Fatal("RW round trip changed bytes")
		}
	})
}
