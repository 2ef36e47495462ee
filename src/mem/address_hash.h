/**
 * @file
 * Virtual-to-physical address hashing (section 3.1.4).
 *
 * "Introducing a hashing function when translating the virtual address
 * to a physical address assures that this unfavorable situation [all PEs
 * hitting one MM] occurs with probability approaching zero as N
 * increases."
 *
 * The memory module serving a physical address is its low lg N bits, so
 * the hash must spread consecutive virtual addresses across modules while
 * remaining an exact bijection (every virtual word has exactly one
 * physical home).
 */

#ifndef ULTRA_MEM_ADDRESS_HASH_H
#define ULTRA_MEM_ADDRESS_HASH_H

#include "common/types.h"

namespace ultra::mem
{

/** Bijective virtual-to-physical address scrambler. */
class AddressHash
{
  public:
    /**
     * @param addr_bits Width of the address space (words); the hash is a
     *                  bijection on [0, 2^addr_bits).
     * @param enabled   When false, translation is the identity (the
     *                  ablation baseline).
     */
    explicit AddressHash(unsigned addr_bits, bool enabled = true);

    /** Translate a virtual word address to its physical home. */
    Addr toPhysical(Addr vaddr) const;

    /** Invert the translation (used by checkers and tests). */
    Addr toVirtual(Addr paddr) const;

    bool enabled() const { return enabled_; }

  private:
    /** One round of an invertible xorshift-multiply mix. */
    Addr mix(Addr x) const;
    Addr unmix(Addr x) const;

    unsigned addrBits_;
    bool enabled_;
    Addr mask_;
};

} // namespace ultra::mem

#endif // ULTRA_MEM_ADDRESS_HASH_H
