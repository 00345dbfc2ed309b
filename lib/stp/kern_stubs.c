/* Multi-word kernel primitives for the STP factorisation solver.
 *
 * Every kernel works on flat OCaml Bytes buffers holding 64-bit words
 * in native byte order; offsets and lengths are counted in words. The
 * OCaml reference (Kern.Ocaml_ops) implements the same contracts with
 * Bytes.get_int64_ne/set_int64_ne, so the two can be differential-tested
 * in one process.
 *
 * All stubs are [@@noalloc]: they neither allocate nor raise, and
 * return immediates only. Bytes data is word-aligned in the OCaml
 * runtime, so the uint64_t views below are safe.
 */

#include <caml/mlvalues.h>
#include <stdint.h>

static inline uint64_t *words_of(value b, value word_off)
{
  return (uint64_t *)Bytes_val(b) + Long_val(word_off);
}

/* Index of the first clear bit below [nbits], -1 if none. */
CAMLprim value stp_kern_first_unset(value b, value off, value nbits)
{
  uint64_t *w = words_of(b, off);
  long n = Long_val(nbits);
  for (long k = 0; k * 64 < n; k++) {
    uint64_t inv = ~w[k];
    if (inv) {
#if defined(__GNUC__) || defined(__clang__)
      long bit = (long)__builtin_ctzll(inv);
#else
      long bit = 0;
      while (!((inv >> bit) & 1)) bit++;
#endif
      long idx = k * 64 + bit;
      return idx < n ? Val_long(idx) : Val_long(-1);
    }
  }
  return Val_long(-1);
}

/* Is the [nbits]-wide row all-zero or all-one? (Constant-factor test
 * on a fully assigned side.) */
CAMLprim value stp_kern_is_const_row(value b, value off, value nbits)
{
  uint64_t *w = words_of(b, off);
  long n = Long_val(nbits);
  int all0 = 1, all1 = 1;
  for (long k = 0; k * 64 < n; k++) {
    long width = n - k * 64;
    uint64_t m = width >= 64 ? ~0ULL : (1ULL << width) - 1;
    if (w[k] & m) all0 = 0;
    if ((w[k] & m) != m) all1 = 0;
  }
  return Val_bool(all0 || all1);
}

/* One whole constraint-propagation step of the factorisation solver:
 * the class row at [rows+roff] is [valid | tv] ([nwords] words each);
 * the partner side's state lives in [st] at [val_off]/[care_off].
 * [ok0]/[ok1] say whether a partner value of 0/1 keeps phi on target.
 * Returns -1 on conflict (no state mutated), else writes the mask of
 * newly forced partner classes to [newly+noff], ORs it into the
 * partner state, and returns 1 if the mask is nonempty, 0 otherwise.
 */
CAMLprim value stp_kern_force_native(value rows, value roff, value st,
                                     value val_off, value care_off,
                                     value newly, value noff, value nwords,
                                     value ok0, value ok1)
{
  long w = Long_val(nwords);
  uint64_t *row = words_of(rows, roff);
  uint64_t *pv = words_of(st, val_off);
  uint64_t *pc = words_of(st, care_off);
  uint64_t *out = words_of(newly, noff);
  int o0 = Int_val(ok0), o1 = Int_val(ok1);
  /* Pass 1: conflicts, before any mutation. */
  for (long k = 0; k < w; k++) {
    uint64_t valid = row[k], tv = row[w + k];
    uint64_t w0 = o0 ? tv : ~tv;
    uint64_t w1 = o1 ? tv : ~tv;
    if (valid & ~(w0 | w1)) return Val_long(-1);
    uint64_t forced0 = valid & w0 & ~w1;
    uint64_t forced1 = valid & w1 & ~w0;
    if (forced0 & pc[k] & pv[k]) return Val_long(-1);
    if (forced1 & pc[k] & ~pv[k]) return Val_long(-1);
  }
  /* Pass 2: commit. */
  uint64_t any = 0;
  for (long k = 0; k < w; k++) {
    uint64_t valid = row[k], tv = row[w + k];
    uint64_t w0 = o0 ? tv : ~tv;
    uint64_t w1 = o1 ? tv : ~tv;
    uint64_t forced0 = valid & w0 & ~w1;
    uint64_t forced1 = valid & w1 & ~w0;
    uint64_t fresh = (forced0 | forced1) & ~pc[k];
    pc[k] |= fresh;
    pv[k] |= forced1 & fresh;
    out[k] = fresh;
    any |= fresh;
  }
  return Val_long(any != 0);
}

CAMLprim value stp_kern_force_bytecode(value *argv, int argn)
{
  (void)argn;
  return stp_kern_force_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7], argv[8], argv[9]);
}

/* Trail rollback: clear the masked bits from both state planes. */
CAMLprim value stp_kern_undo_native(value st, value val_off, value care_off,
                                    value mask, value moff, value nwords)
{
  long w = Long_val(nwords);
  uint64_t *pv = words_of(st, val_off);
  uint64_t *pc = words_of(st, care_off);
  uint64_t *m = words_of(mask, moff);
  for (long k = 0; k < w; k++) {
    pv[k] &= ~m[k];
    pc[k] &= ~m[k];
  }
  return Val_unit;
}

CAMLprim value stp_kern_undo_bytecode(value *argv, int argn)
{
  (void)argn;
  return stp_kern_undo_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5]);
}

/* OR together the [twords]-word indicator rows of the classes whose
 * bit is set in the [count]-bit row bitset: factor assembly without
 * tabulating 2^n closures. */
CAMLprim value stp_kern_assemble_native(value inds, value ioff, value row,
                                        value roff, value count, value twords,
                                        value out, value ooff)
{
  long cnt = Long_val(count), tw = Long_val(twords);
  uint64_t *ind = words_of(inds, ioff);
  uint64_t *sel = words_of(row, roff);
  uint64_t *dst = words_of(out, ooff);
  for (long k = 0; k < tw; k++) dst[k] = 0;
  for (long c = 0; c < cnt; c++)
    if ((sel[c >> 6] >> (c & 63)) & 1) {
      uint64_t *src = ind + c * tw;
      for (long k = 0; k < tw; k++) dst[k] |= src[k];
    }
  return Val_unit;
}

CAMLprim value stp_kern_assemble_bytecode(value *argv, int argn)
{
  (void)argn;
  return stp_kern_assemble_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                                  argv[5], argv[6], argv[7]);
}
