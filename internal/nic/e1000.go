package nic

// e1000Source describes the early Intel e1000 legacy RX descriptor: the NIC
// writes back a single fixed completion layout carrying the packet length,
// the computed IP checksum, status/error bits and the stripped VLAN tag.
// There is exactly one completion path — the paper's example of a NIC that
// "supported only a single descriptor, giving the computed IP checksum of
// the packet".
const e1000Source = `
// Intel e1000 (legacy) OpenDesc interface description.

struct e1000_rx_ctx_t {
    // Legacy descriptors have no per-queue layout configuration.
    bit<1> reserved;
}

// TX descriptor posted by the host (legacy transmit descriptor).
header e1000_tx_desc_t {
    bit<64> buffer_addr;
    @semantic("pkt_len")
    bit<16> length;
    @semantic("csum_level")
    bit<8>  cso;        // checksum offset command
    bit<8>  cmd;
    bit<8>  status_rsv;
    bit<8>  css;
    @semantic("vlan")
    bit<16> special;
}

// RX write-back (completion) fields computed by the NIC.
struct e1000_meta_t {
    @semantic("pkt_len")
    bit<16> length;
    @semantic("ip_checksum")
    bit<16> csum;
    @semantic("error_flags")
    bit<8>  status;
    bit<8>  errors;
    @semantic("vlan")
    bit<16> special;
}

@bind("H2C_CTX_T", "e1000_rx_ctx_t")
@bind("DESC_T", "e1000_tx_desc_t")
parser DescParser<H2C_CTX_T, DESC_T>(
    desc_in din,
    in H2C_CTX_T h2c_ctx,
    out DESC_T desc_hdr)
{
    state start {
        din.extract(desc_hdr);
        transition accept;
    }
}

@bind("C2H_CTX_T", "e1000_rx_ctx_t")
@bind("DESC_T", "e1000_tx_desc_t")
@bind("META_T", "e1000_meta_t")
control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta)
{
    apply {
        cmpt_out.emit(pipe_meta.length);
        cmpt_out.emit(pipe_meta.csum);
        cmpt_out.emit(pipe_meta.status);
        cmpt_out.emit(pipe_meta.errors);
        cmpt_out.emit(pipe_meta.special);
    }
}
`

func init() {
	register(&Model{
		Name:        "e1000",
		Vendor:      "Intel",
		Kind:        FixedFunction,
		Description: "Early Intel gigabit NIC; one fixed 8-byte write-back layout with IP checksum",
		Source:      e1000Source,
	})
}
