// Reconfiguration: replicas join and leave the consortium without any
// trusted administrator, with consensus keys rotated at every view change —
// the forgetting protocol that prevents removed-then-compromised members
// from forking the chain (paper §V-D, Fig. 4-5).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"smartchain"
	"smartchain/internal/blockchain"
	"smartchain/internal/coin"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	minter := smartchain.SeededKeyPair("reconfig-demo", 1)
	cluster, err := smartchain.NewCluster(smartchain.ClusterConfig{
		N: 4,
		AppFactory: func() smartchain.Application {
			return smartchain.NewCoinService([]smartchain.PublicKey{minter.Public()})
		},
		Persistence: smartchain.PersistenceStrong,
		Minters:     []smartchain.PublicKey{minter.Public()},
		ChainID:     "reconfig-demo",
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()
	// The proxy tracks the consortium's membership on its own: every reply
	// piggybacks a view tag, and a quorum of tags disagreeing with
	// the proxy's view triggers a view query. No SetMembers calls below —
	// the client rides through both reconfigurations untouched.
	proxy := smartchain.NewClient(cluster.ClientEndpoint(), minter, cluster.Members())
	defer proxy.Close()

	mint := func(nonce uint64) error {
		tx, err := coin.NewMint(minter, nonce, 10)
		if err != nil {
			return err
		}
		_, err = proxy.Invoke(context.Background(), smartchain.WrapAppOp(tx.Encode()))
		return err
	}

	if err := mint(1); err != nil {
		return err
	}
	fmt.Printf("view %d: members %v\n", cluster.Nodes[0].Node.View().ID, cluster.Members())

	// Replica 4 asks to join: it gathers signed votes from n−f members
	// (each carrying a fresh certified consensus key for the next view),
	// assembles the certificate, and submits it as an ordered transaction.
	fmt.Println("replica 4 requesting to join ...")
	if err := cluster.Join(4, 20*time.Second); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	fmt.Printf("view %d: members %v\n", cluster.Nodes[0].Node.View().ID, cluster.Members())
	if err := mint(2); err != nil {
		return err
	}

	// Replica 0 leaves voluntarily.
	fmt.Println("replica 0 leaving ...")
	if err := cluster.Leave(0, 20*time.Second); err != nil {
		return fmt.Errorf("leave: %w", err)
	}
	fmt.Printf("view %d: members %v\n", cluster.Nodes[1].Node.View().ID, cluster.Members())
	if err := mint(3); err != nil {
		return err
	}

	// The chain records both reconfigurations; an external verifier tracks
	// the key material across them, starting from nothing but genesis.
	time.Sleep(300 * time.Millisecond)
	genesisBlock := smartchain.GenesisBlock(&cluster.Genesis)
	chain := append([]smartchain.Block{genesisBlock}, cluster.Nodes[1].Node.Ledger().CachedBlocks()...)
	summary, err := smartchain.VerifyChain(chain, blockchain.VerifyOptions{})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fmt.Printf("chain verified: %d blocks, %d view changes, final view has %d members\n",
		summary.Blocks, summary.ViewChanges, summary.FinalView.N())

	// The forgetting protocol in action: replica 0's old consensus keys
	// were erased when it left. Even if it is compromised now, it cannot
	// sign blocks for the views it was part of.
	_, err = cluster.Nodes[0].Permanent.PrivateBytes() // permanent key survives
	if err != nil {
		return err
	}
	fmt.Println("departed replica keeps its permanent identity, but its view keys are erased")
	return nil
}
