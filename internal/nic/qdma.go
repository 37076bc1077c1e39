package nic

import "opendesc/internal/core"

// qdmaSource models the AMD/Xilinx QDMA subsystem: completions ("CMPT
// entries") are fully user-defined and sized 8, 16, 32 or 64 bytes per
// installed queue context. The metadata carried is whatever the programmable
// pipeline computes — including application-level items such as a key-value
// request key digest (the FlexNIC-style scenario of the paper's Fig. 1) or a
// crypto context id. One completion path exists per installed queue format.
const qdmaSource = `
// AMD/Xilinx QDMA OpenDesc interface description.

struct qdma_rx_ctx_t {
    bit<3> cmpt_size;  // 0: 8B, 1: 16B, 2: 32B, 3: 64B
    bit<1> user_fmt;   // 8B variant: 0 = flow id, 1 = crypto context
}

struct qdma_tx_ctx_t {
    bit<8> desc_size;  // H2C descriptor bytes: 8, 16 or 32
}

header qdma_tx_base_t {
    bit<64> addr;
}

header qdma_tx_len_t {
    @semantic("pkt_len")
    bit<16> length;
    @semantic("seg_cnt")
    bit<8>  sg_count;
    bit<40> rsvd;
}

header qdma_tx_user_t {
    @semantic("csum_level")
    bit<2>  csum_cmd;
    @semantic("vlan")
    bit<16> vlan;
    @semantic("crypto_ctx")
    bit<32> crypto_ctx;
    @semantic("tunnel_id")
    bit<32> vni;
    bit<46> rsvd;
}

struct qdma_tx_desc_t {
    qdma_tx_base_t base;
    qdma_tx_len_t  len;
    qdma_tx_user_t user;
}

struct qdma_meta_t {
    @semantic("pkt_len")
    bit<16> length;
    @semantic("rss")
    bit<32> hash;
    @semantic("kv_key")
    bit<64> kv_key;
    @semantic("crypto_ctx")
    bit<32> crypto_ctx;
    @semantic("payload_hash")
    bit<32> payload_hash;
    @semantic("vlan")
    bit<16> vlan;
    @semantic("timestamp")
    bit<64> timestamp;
    @semantic("ip_checksum")
    bit<16> ip_csum;
    @semantic("l4_checksum")
    bit<16> l4_csum;
    @semantic("flow_id")
    bit<32> flow_id;
    @semantic("ptype")
    bit<8>  ptype;
    @semantic("tunnel_id")
    bit<32> vni;
    @semantic("mark")
    bit<32> mark;
    @semantic("queue_id")
    bit<16> qid;
    @semantic("seg_cnt")
    bit<8>  segs;
    @semantic("decap")
    bit<1>  decap;
    @semantic("drop_hint")
    bit<1>  drop_hint;
    @semantic("error_flags")
    bit<8>  err;
}

header qdma_pad6_t  { bit<48>  rsvd; }
header qdma_pad11_t { bit<86>  rsvd; }

struct qdma_pads_t {
    qdma_pad6_t  pad32;
    qdma_pad11_t pad64;
}

@bind("H2C_CTX_T", "qdma_tx_ctx_t")
@bind("DESC_T", "qdma_tx_desc_t")
parser DescParser<H2C_CTX_T, DESC_T>(
    desc_in din,
    in H2C_CTX_T h2c_ctx,
    out DESC_T desc_hdr)
{
    state start {
        din.extract(desc_hdr.base);
        transition select(h2c_ctx.desc_size) {
            8:  accept_base;
            16: parse_len;
            32: parse_user;
            default: reject;
        }
    }
    state accept_base {
        transition accept;
    }
    state parse_len {
        din.extract(desc_hdr.len);
        transition accept;
    }
    state parse_user {
        din.extract(desc_hdr.len);
        din.extract(desc_hdr.user);
        transition accept;
    }
}

@bind("C2H_CTX_T", "qdma_rx_ctx_t")
@bind("DESC_T", "qdma_tx_desc_t")
@bind("META_T", "qdma_meta_t")
@bind("PAD_T", "qdma_pads_t")
control CmptDeparser<C2H_CTX_T, DESC_T, META_T, PAD_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta,
    in PAD_T pads)
{
    apply {
        cmpt_out.emit(pipe_meta.length);
        switch (ctx.cmpt_size) {
            0: { // 8-byte entry: length + one user dword + flags
                if (ctx.user_fmt == 0) {
                    cmpt_out.emit(pipe_meta.flow_id);
                } else {
                    cmpt_out.emit(pipe_meta.crypto_ctx);
                }
                cmpt_out.emit(pipe_meta.ptype);
                cmpt_out.emit(pipe_meta.err);
            }
            1: { // 16-byte entry: KV-store scenario
                cmpt_out.emit(pipe_meta.hash);
                cmpt_out.emit(pipe_meta.kv_key);
                cmpt_out.emit(pipe_meta.ptype);
                cmpt_out.emit(pipe_meta.err);
            }
            2: { // 32-byte entry: checksum/timestamp heavy
                cmpt_out.emit(pipe_meta.hash);
                cmpt_out.emit(pipe_meta.vlan);
                cmpt_out.emit(pipe_meta.timestamp);
                cmpt_out.emit(pipe_meta.ip_csum);
                cmpt_out.emit(pipe_meta.l4_csum);
                cmpt_out.emit(pipe_meta.flow_id);
                cmpt_out.emit(pipe_meta.ptype);
                cmpt_out.emit(pipe_meta.err);
                cmpt_out.emit(pads.pad32);
            }
            default: { // 64-byte entry: everything the pipeline computes
                cmpt_out.emit(pipe_meta.hash);
                cmpt_out.emit(pipe_meta.kv_key);
                cmpt_out.emit(pipe_meta.crypto_ctx);
                cmpt_out.emit(pipe_meta.payload_hash);
                cmpt_out.emit(pipe_meta.vlan);
                cmpt_out.emit(pipe_meta.timestamp);
                cmpt_out.emit(pipe_meta.ip_csum);
                cmpt_out.emit(pipe_meta.l4_csum);
                cmpt_out.emit(pipe_meta.flow_id);
                cmpt_out.emit(pipe_meta.ptype);
                cmpt_out.emit(pipe_meta.vni);
                cmpt_out.emit(pipe_meta.mark);
                cmpt_out.emit(pipe_meta.qid);
                cmpt_out.emit(pipe_meta.segs);
                cmpt_out.emit(pipe_meta.decap);
                cmpt_out.emit(pipe_meta.drop_hint);
                cmpt_out.emit(pipe_meta.err);
                cmpt_out.emit(pads.pad64);
            }
        }
    }
}
`

func init() {
	register(&Model{
		Name:        "qdma",
		Vendor:      "AMD/Xilinx",
		Kind:        FullyProgrammable,
		Description: "QDMA fully-programmable completions: 8/16/32/64-byte user-defined formats",
		Pipeline:    core.PipelineCaps{Programmable: true, StageBudget: 12, PayloadExterns: true},
		Source:      qdmaSource,
	})
}
