// smartcoin is the client CLI for a smartchaind deployment: mint coins,
// spend them, and check balances against the replicated UTXO state.
//
//	smartcoin -peers 0=localhost:7000,...,3=localhost:7003 mint 100 50
//	smartcoin -peers ... balance
//	smartcoin -peers ... spend <coin-id-hex> <value>
package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"

	"smartchain/internal/client"
	"smartchain/internal/coin"
	"smartchain/internal/core"
	"smartchain/internal/crypto"
	"smartchain/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smartcoin:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		peersArg = flag.String("peers", "0=localhost:7000,1=localhost:7001,2=localhost:7002,3=localhost:7003", "replica addresses")
		chainID  = flag.String("chain", "smartchain-demo", "chain identifier (genesis seed)")
		minterID = flag.Int64("identity", 0, "seeded minter identity index")
		secret   = flag.String("secret", "smartchain-demo-secret", "shared link-authentication secret")
		clientID = flag.Int("client", 1, "client number (distinct per concurrent CLI)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: smartcoin [flags] mint <values...> | spend <coin-hex> <value> | nonce is automatic")
	}

	peers := make(map[int32]string)
	members := []int32{}
	for _, pair := range splitPairs(*peersArg) {
		peers[pair.id] = pair.addr
		members = append(members, pair.id)
	}

	id := transport.ClientIDBase + int32(*clientID)
	net, err := transport.NewTCPNetwork(id, "127.0.0.1:0", []byte(*secret), peers)
	if err != nil {
		return err
	}
	defer net.Close()

	key := crypto.SeededKeyPair(*chainID+"/minter", *minterID)
	proxy := client.New(net, key, members)
	defer proxy.Close()
	ctx := context.Background()

	switch args[0] {
	case "mint":
		if len(args) < 2 {
			return fmt.Errorf("mint needs at least one value")
		}
		values := make([]uint64, 0, len(args)-1)
		for _, a := range args[1:] {
			v, err := strconv.ParseUint(a, 10, 64)
			if err != nil {
				return fmt.Errorf("bad value %q: %v", a, err)
			}
			values = append(values, v)
		}
		n, err := nonce()
		if err != nil {
			return err
		}
		tx, err := coin.NewMint(key, n, values...)
		if err != nil {
			return err
		}
		res, err := proxy.Invoke(ctx, core.WrapAppOp(tx.Encode()))
		if err != nil {
			return err
		}
		code, coins, err := coin.ParseResult(res)
		if err != nil || code != coin.ResultOK {
			return fmt.Errorf("mint rejected: code=%d err=%v", code, err)
		}
		for _, c := range coins {
			fmt.Printf("minted coin %s\n", c)
		}
	case "spend":
		if len(args) != 3 {
			return fmt.Errorf("spend <coin-hex> <value>")
		}
		raw, err := hex.DecodeString(args[1])
		if err != nil {
			return fmt.Errorf("bad coin id: %v", err)
		}
		value, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad value: %v", err)
		}
		n, err := nonce()
		if err != nil {
			return err
		}
		tx, err := coin.NewSpend(key, n, []coin.CoinID{crypto.HashFromBytes(raw)},
			[]coin.Output{{Owner: key.Public(), Value: value}})
		if err != nil {
			return err
		}
		res, err := proxy.Invoke(ctx, core.WrapAppOp(tx.Encode()))
		if err != nil {
			return err
		}
		code, coins, err := coin.ParseResult(res)
		if err != nil || code != coin.ResultOK {
			return fmt.Errorf("spend rejected: code=%d err=%v", code, err)
		}
		for _, c := range coins {
			fmt.Printf("new coin %s\n", c)
		}
	case "balance":
		// Consensus-free read: answered directly from replica state, made
		// trustworthy by the matching-reply quorum.
		res, err := proxy.InvokeUnordered(ctx, core.WrapAppOp(coin.EncodeBalanceQuery(key.Public())))
		if err != nil {
			return err
		}
		balance, err := coin.ParseUint64Result(res)
		if err != nil {
			return err
		}
		fmt.Printf("balance of identity %d: %d\n", *minterID, balance)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}

// nonce draws a random transaction nonce. It is what tells two otherwise
// identical mints apart (their coin IDs hash it), so a failed draw is an
// error, never a zero nonce.
func nonce() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("drawing a nonce: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

type peerPair struct {
	id   int32
	addr string
}

func splitPairs(arg string) []peerPair {
	var out []peerPair
	start := 0
	for i := 0; i <= len(arg); i++ {
		if i == len(arg) || arg[i] == ',' {
			pair := arg[start:i]
			start = i + 1
			for j := 0; j < len(pair); j++ {
				if pair[j] == '=' {
					if id, err := strconv.Atoi(pair[:j]); err == nil {
						out = append(out, peerPair{id: int32(id), addr: pair[j+1:]})
					}
					break
				}
			}
		}
	}
	return out
}
