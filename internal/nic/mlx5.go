package nic

import "opendesc/internal/core"

// mlx5Source models NVIDIA ConnectX-style completion queue entries (CQEs).
// The full 64-byte CQE carries 12 distinct metadata items — the paper notes
// that XDP's accessors cover only 3 of them (hash, timestamp, VLAN). The
// device also supports a 16-byte compressed CQE and an 8-byte mini CQE whose
// content is chosen per-queue ("One might prefer to use the compressed
// descriptor format ... which might contain only the hash, or only the
// checksum").
const mlx5Source = `
// NVIDIA ConnectX (mlx5-class) OpenDesc interface description.

enum bit<2> mlx5_cqe_format_t {
    FULL       = 0,
    COMPRESSED = 1,
    MINI       = 2
}

struct mlx5_rx_ctx_t {
    bit<2> cqe_format;   // mlx5_cqe_format_t, programmed per queue
    bit<1> mini_fmt;     // mini CQE content: 0 = hash, 1 = checksum
}

header mlx5_tx_desc_t {
    bit<64> laddr;
    bit<32> lkey;
    @semantic("pkt_len")
    bit<32> byte_count;
    @semantic("csum_level")
    bit<2>  csum_ctrl;
    @semantic("vlan")
    bit<16> insert_vlan;
    bit<6>  ds_cnt;
    bit<8>  opcode;
}

// The 12 metadata items a ConnectX CQE can carry.
struct mlx5_meta_t {
    @semantic("rss")
    bit<32> rx_hash_result;
    @semantic("vlan")
    bit<16> vlan_info;
    @semantic("timestamp")
    bit<64> timestamp;
    @semantic("pkt_len")
    bit<32> byte_cnt;
    @semantic("ptype")
    bit<8>  l3_l4_hdr_type;
    @semantic("flow_id")
    bit<24> flow_tag;
    @semantic("mark")
    bit<24> sop_drop_qpn;
    @semantic("lro_segs")
    bit<8>  lro_num_seg;
    @semantic("ip_checksum")
    bit<16> checksum;
    @semantic("l4_checksum")
    bit<8>  l4_ok;
    @semantic("tunnel_id")
    bit<32> vni;
    @semantic("error_flags")
    bit<8>  err_syndrome;
    // Short pkt_len used by mini CQEs.
    @semantic("pkt_len")
    bit<16> byte_cnt16;
}

@bind("H2C_CTX_T", "mlx5_rx_ctx_t")
@bind("DESC_T", "mlx5_tx_desc_t")
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

header mlx5_pad29_t { bit<232> rsvd; }
header mlx5_pad3_t  { bit<24>  rsvd; }

struct mlx5_pads_t {
    mlx5_pad29_t full_pad;
    mlx5_pad3_t  comp_pad;
}

@bind("C2H_CTX_T", "mlx5_rx_ctx_t")
@bind("DESC_T", "mlx5_tx_desc_t")
@bind("META_T", "mlx5_meta_t")
@bind("PAD_T", "mlx5_pads_t")
control CmptDeparser<C2H_CTX_T, DESC_T, META_T, PAD_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta,
    in PAD_T pads)
{
    apply {
        switch (ctx.cqe_format) {
            1: { // COMPRESSED: 16-byte CQE
                cmpt_out.emit(pipe_meta.rx_hash_result);
                cmpt_out.emit(pipe_meta.byte_cnt);
                cmpt_out.emit(pipe_meta.vlan_info);
                cmpt_out.emit(pipe_meta.err_syndrome);
                cmpt_out.emit(pipe_meta.l3_l4_hdr_type);
                cmpt_out.emit(pads.comp_pad);
            }
            2: { // MINI: 8-byte CQE, content selected per queue
                if (ctx.mini_fmt == 0) {
                    cmpt_out.emit(pipe_meta.rx_hash_result);
                    cmpt_out.emit(pipe_meta.byte_cnt16);
                    cmpt_out.emit(pipe_meta.lro_num_seg);
                } else {
                    cmpt_out.emit(pipe_meta.checksum);
                    cmpt_out.emit(pipe_meta.byte_cnt16);
                    cmpt_out.emit(pipe_meta.flow_tag);
                }
            }
            default: { // FULL: 64-byte CQE with all 12 metadata items
                cmpt_out.emit(pipe_meta.rx_hash_result);
                cmpt_out.emit(pipe_meta.vlan_info);
                cmpt_out.emit(pipe_meta.timestamp);
                cmpt_out.emit(pipe_meta.byte_cnt);
                cmpt_out.emit(pipe_meta.l3_l4_hdr_type);
                cmpt_out.emit(pipe_meta.flow_tag);
                cmpt_out.emit(pipe_meta.sop_drop_qpn);
                cmpt_out.emit(pipe_meta.lro_num_seg);
                cmpt_out.emit(pipe_meta.checksum);
                cmpt_out.emit(pipe_meta.l4_ok);
                cmpt_out.emit(pipe_meta.vni);
                cmpt_out.emit(pipe_meta.err_syndrome);
                cmpt_out.emit(pads.full_pad);
            }
        }
        // op_own: opcode/owner byte closing every CQE format.
        cmpt_out.emit(desc_hdr.opcode);
    }
}
`

func init() {
	register(&Model{
		Name:        "mlx5",
		Vendor:      "NVIDIA",
		Kind:        PartiallyProgrammable,
		Description: "ConnectX-style CQE: 64B full (12 metadata fields), 16B compressed, 8B mini",
		Pipeline:    core.PipelineCaps{Programmable: true, StageBudget: 4},
		Source:      mlx5Source,
	})
}
