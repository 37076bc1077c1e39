package nic

import "opendesc/internal/core"

// iceSource models the Intel E810 ("ice") flexible receive descriptor: the
// device supports per-queue RXDID profiles that select which metadata the
// 16/32-byte write-back carries — a shipping example of the partially
// programmable middle ground between fixed layouts and fully user-defined
// QDMA completions. Profile 0 is the legacy layout; profiles 1 and 2 are
// "flex" layouts trading flow/timestamp metadata against tunnel/mark
// metadata within the same 32-byte budget.
const iceSource = `
// Intel E810 (ice) flexible descriptor OpenDesc description.

struct ice_rx_ctx_t {
    bit<6> rxdid;   // receive descriptor profile id, programmed per queue
}

header ice_tx_desc_t {
    bit<64> address;
    @semantic("pkt_len")
    bit<16> length;
    @semantic("csum_level")
    bit<2>  csum_cmd;
    bit<6>  dtyp;
    @semantic("vlan")
    bit<16> l2tag1;
    @semantic("seg_cnt")
    bit<8>  mss_idx;
}

struct ice_meta_t {
    @semantic("pkt_len")
    bit<16> pkt_len;
    @semantic("ptype")
    bit<10> ptype;
    bit<6>  rsvd0;
    @semantic("vlan")
    bit<16> l2tag1;
    @semantic("error_flags")
    bit<8>  err;
    @semantic("ip_checksum")
    bit<16> frag_csum;
    @semantic("rss")
    bit<32> rss_hash;
    @semantic("flow_id")
    bit<32> flow_id;
    @semantic("timestamp")
    bit<64> ts;
    @semantic("tunnel_id")
    bit<32> vni;
    @semantic("mark")
    bit<32> fd_id;
}

header ice_pad7_t  { bit<56> rsvd; }
header ice_pad11_t { bit<88> rsvd; }

struct ice_pads_t {
    ice_pad7_t  pad56;
    ice_pad11_t pad88;
}

@bind("H2C_CTX_T", "ice_rx_ctx_t")
@bind("DESC_T", "ice_tx_desc_t")
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

@bind("C2H_CTX_T", "ice_rx_ctx_t")
@bind("DESC_T", "ice_tx_desc_t")
@bind("META_T", "ice_meta_t")
@bind("PAD_T", "ice_pads_t")
control CmptDeparser<C2H_CTX_T, DESC_T, META_T, PAD_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta,
    in PAD_T pads)
{
    apply {
        // Base write-back shared by every RXDID profile.
        cmpt_out.emit(pipe_meta.pkt_len);
        cmpt_out.emit(pipe_meta.ptype);
        cmpt_out.emit(pipe_meta.rsvd0);
        cmpt_out.emit(pipe_meta.l2tag1);
        cmpt_out.emit(pipe_meta.err);
        cmpt_out.emit(pipe_meta.frag_csum);
        if (ctx.rxdid == 1) {
            // RXDID 1: "flex NIC" profile — flow metadata + timestamp (32B).
            cmpt_out.emit(pipe_meta.rss_hash);
            cmpt_out.emit(pipe_meta.flow_id);
            cmpt_out.emit(pipe_meta.ts);
            cmpt_out.emit(pads.pad56);
        } else {
            if (ctx.rxdid == 2) {
                // RXDID 2: "flex comms" profile — overlay metadata (32B).
                cmpt_out.emit(pipe_meta.rss_hash);
                cmpt_out.emit(pipe_meta.vni);
                cmpt_out.emit(pipe_meta.fd_id);
                cmpt_out.emit(pads.pad88);
            } else {
                // RXDID 0 (and reserved ids): legacy 16-byte write-back.
                cmpt_out.emit(pads.pad56);
            }
        }
    }
}
`

func init() {
	register(&Model{
		Name:        "ice",
		Vendor:      "Intel",
		Kind:        PartiallyProgrammable,
		Description: "E810 flexible descriptor: legacy 16B write-back + two 32B flex RXDID profiles",
		Pipeline:    core.PipelineCaps{Programmable: true, StageBudget: 2},
		Source:      iceSource,
	})
}
