package nic

// ixgbeSource models the Intel 82599/X540 advanced receive descriptor
// write-back format. The 4-byte "MRQ" dword is mode-dependent: RSS hash,
// flow-director filter id, or fragment-checksum + ip_id — selected by the
// multiple-receive-queues mode programmed per port. The packet-type field is
// 13 bits wide (deliberately not byte aligned, as on real hardware).
const ixgbeSource = `
// Intel ixgbe (82599-class) advanced descriptor OpenDesc description.

struct ixgbe_rx_ctx_t {
    bit<2> mrq_mode;   // 0: fragment checksum, 1: RSS, 2: flow director
}

header ixgbe_tx_desc_t {
    bit<64> address;
    @semantic("pkt_len")
    bit<16> length;
    @semantic("csum_level")
    bit<2>  txsm;
    bit<6>  dtyp;
    @semantic("vlan")
    bit<16> vlan;
    @semantic("seg_cnt")
    bit<8>  mss_idx;
}

struct ixgbe_meta_t {
    @semantic("rss")
    bit<32> rss_hash;
    @semantic("flow_id")
    bit<32> fdir_id;
    @semantic("ip_checksum")
    bit<16> frag_csum;
    @semantic("ip_id")
    bit<16> ip_id;
    @semantic("ptype")
    bit<13> ptype;
    bit<3>  rsvd_ptype;
    @semantic("pkt_len")
    bit<16> pkt_len;
    @semantic("vlan")
    bit<16> vlan_tag;
    @semantic("error_flags")
    bit<8>  ext_error;
    bit<8>  ext_status;
}

@bind("H2C_CTX_T", "ixgbe_rx_ctx_t")
@bind("DESC_T", "ixgbe_tx_desc_t")
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

@bind("C2H_CTX_T", "ixgbe_rx_ctx_t")
@bind("DESC_T", "ixgbe_tx_desc_t")
@bind("META_T", "ixgbe_meta_t")
control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta)
{
    apply {
        // MRQ dword: mode-dependent content.
        if (ctx.mrq_mode == 1) {
            cmpt_out.emit(pipe_meta.rss_hash);
        } else {
            if (ctx.mrq_mode == 2) {
                cmpt_out.emit(pipe_meta.fdir_id);
            } else {
                cmpt_out.emit(pipe_meta.frag_csum);
                cmpt_out.emit(pipe_meta.ip_id);
            }
        }
        cmpt_out.emit(pipe_meta.ptype);
        cmpt_out.emit(pipe_meta.rsvd_ptype);
        cmpt_out.emit(pipe_meta.pkt_len);
        cmpt_out.emit(pipe_meta.vlan_tag);
        cmpt_out.emit(pipe_meta.ext_error);
        cmpt_out.emit(pipe_meta.ext_status);
    }
}
`

func init() {
	register(&Model{
		Name:        "ixgbe",
		Vendor:      "Intel",
		Kind:        FixedFunction,
		Description: "82599-class advanced write-back: RSS / flow-director / fragment-checksum MRQ modes",
		Source:      ixgbeSource,
	})
}
