// Scalar backend: the portable bit-exactness reference every ISA backend
// is tested against. This TU is compiled with the project's baseline flags
// only — no -m options — so the table is executable on any supported host.
#include "simd/kernels.h"
#include "simd/kernels_ref.h"

namespace fpsnr::simd {

const KernelTable& scalar_kernel_table() {
  static const KernelTable table{
      "scalar",
      &haar_fwd_pairs_ref,
      &haar_inv_pairs_ref,
      &dct2_line_ref,
      &dct3_line_ref,
      &zfpr_quant_group_ref,
      &huffman_pack_ref,
      &lorenzo2_quant_ref<float>,
      &lorenzo2_quant_ref<double>,
      &lorenzo3_quant_ref<float>,
      &lorenzo3_quant_ref<double>,
      &lorenzo2_recon_ref<float>,
      &lorenzo2_recon_ref<double>,
      &lorenzo3_recon_ref<float>,
      &lorenzo3_recon_ref<double>,
      &sse_f32_ref,
      &sse_f64_ref,
      &sse_cast_f32_ref,
  };
  return table;
}

}  // namespace fpsnr::simd
