package nic

// e1000eSource is the paper's Figure 6 running example: the newer Intel
// extended descriptor can contain the RSS hash, or the IP identification +
// checksum pair, but not both. A single context bit (use_rss, programmed via
// MRQC-like registers over the control channel) selects between the two
// completion layouts.
const e1000eSource = `
// Intel e1000e / 82574-style extended descriptor OpenDesc description.

struct e1000e_rx_ctx_t {
    bit<1> use_rss;
}

header e1000e_tx_desc_t {
    bit<64> buffer_addr;
    @semantic("pkt_len")
    bit<16> length;
    @semantic("csum_level")
    bit<2>  csum_cmd;
    bit<6>  dtyp;
    @semantic("vlan")
    bit<16> vlan;
    bit<8>  cmd;
}

struct e1000e_meta_t {
    @semantic("rss")
    bit<32> rss_hash;
    @semantic("ip_id")
    bit<16> ip_id;
    @semantic("ip_checksum")
    bit<16> csum;
    @semantic("pkt_len")
    bit<16> length;
    @semantic("error_flags")
    bit<8>  status;
    bit<8>  errors;
    @semantic("vlan")
    bit<16> vlan;
    @semantic("ptype")
    bit<8>  ptype;
}

@bind("H2C_CTX_T", "e1000e_rx_ctx_t")
@bind("DESC_T", "e1000e_tx_desc_t")
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

@bind("C2H_CTX_T", "e1000e_rx_ctx_t")
@bind("DESC_T", "e1000e_tx_desc_t")
@bind("META_T", "e1000e_meta_t")
control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta)
{
    apply {
        // MRQ field: RSS hash or the ip_id+fragment-checksum pair — never
        // both (Fig. 6 of the paper).
        if (ctx.use_rss == 1) {
            cmpt_out.emit(pipe_meta.rss_hash);
        } else {
            cmpt_out.emit(pipe_meta.ip_id);
            cmpt_out.emit(pipe_meta.csum);
        }
        cmpt_out.emit(pipe_meta.length);
        cmpt_out.emit(pipe_meta.status);
        cmpt_out.emit(pipe_meta.errors);
        cmpt_out.emit(pipe_meta.vlan);
        cmpt_out.emit(pipe_meta.ptype);
    }
}
`

func init() {
	register(&Model{
		Name:        "e1000e",
		Vendor:      "Intel",
		Kind:        FixedFunction,
		Description: "Newer Intel extended descriptor: RSS hash XOR ip_id+checksum (paper Fig. 6)",
		Source:      e1000eSource,
	})
}
